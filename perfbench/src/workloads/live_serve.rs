//! `live-serve`: shaped like `spca serve --listen`. Planted-subspace rows
//! (d = 256) stream over TCP in an open loop at 10,000 tuples/s into 1
//! engine that publishes every 64 tuples, while 1,000 queries/s of
//! `/project`, `/score` and `/topk` arrive over 2 keep-alive connections.
//! Engines run below capacity; the epoch store, the HTTP server and the
//! query kernel set the latency. With one engine the served snapshot
//! names the newest tuple it includes, so freshness is measurable from
//! outside: every `/project` answer is matched bit for bit against an
//! offline replay, which identifies the snapshot it was computed on.

use super::{distance, record};
use crate::data::{self, Rows, PLANTED_RANK};
use crate::layers;
use crate::loadgen::{self, Kind, Observer, Outcome, Plan};
use crate::proc::{line_after, numbers, Proc};
use crate::report::Report;
use crate::stats::{median, percentile, Summary};
use crate::trace::span;
use crate::Ctx;
use astro_stream_pca::core::{EigenSystem, QueryWorkspace, RobustPca};
use astro_stream_pca::engine::{
    endpoint_index, AppConfig, EigenQueryHandler, EpochReader, EpochStore, ParallelPcaApp,
    ServeShared,
};
use astro_stream_pca::linalg::Mat;
use astro_stream_pca::streams::ops::http_server::{HttpServer, ServerConfig};
use astro_stream_pca::streams::ops::TcpSource;
use astro_stream_pca::streams::Engine;
use std::collections::BTreeMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 256;
const COMPONENTS: usize = 4;
const MEMORY: usize = 5000;
const PUBLISH_EVERY: u64 = 64;
const INGEST_PER_S: f64 = 10_000.0;
const QUERIES_PER_S: f64 = 1_000.0;
/// Distinct ingest rows, streamed round-robin (keeps the generator's
/// memory small; the replay uses the same sequence).
const POOL: usize = 2048;
const QUERY_POOL: usize = 64;
const WARMUP: Duration = Duration::from_secs(1);
/// Extra launches, each only until the first query answers 200.
const SETUP_TRIALS: usize = 36;
/// Launches the steady time is split over.
const SESSIONS: u32 = 4;
/// Snapshots searched (newest first) for the one an answer came from.
const MAX_SEARCH: usize = 512;
const MAX_DISTANCE: f64 = 0.05;

struct Inputs {
    pool: Rows,
    lines: Vec<Vec<u8>>,
    queries: Rows,
    bodies: Vec<Vec<u8>>,
    planted: Mat,
}

fn inputs(ctx: &Ctx) -> Result<Inputs, String> {
    let (pool, planted) = data::planted(ctx.seed, POOL, DIM);
    let path = ctx.work.join("ingest.csv");
    let props = pool.write_csv(&path).map_err(|e| e.to_string())?;
    println!("{} (streamed round-robin)", props.line());
    let lines = data::csv_lines(&path).map_err(|e| e.to_string())?;
    let (queries, _) = data::planted(ctx.seed ^ 0x9e37_79b9_7f4a_7c15, QUERY_POOL, DIM);
    let qpath = ctx.work.join("queries.csv");
    queries.write_csv(&qpath).map_err(|e| e.to_string())?;
    let bodies = data::csv_lines(&qpath).map_err(|e| e.to_string())?;
    Ok(Inputs {
        pool,
        lines,
        queries,
        bodies,
        planted,
    })
}

fn plan(inp: &Inputs, steady: Duration) -> Plan<'_> {
    Plan {
        lines: &inp.lines,
        ingest_per_s: INGEST_PER_S,
        bodies: &inp.bodies,
        queries_per_s: QUERIES_PER_S,
        warmup: if steady.is_zero() {
            Duration::ZERO
        } else {
            WARMUP
        },
        steady,
    }
}

/// Starts `spca serve` and connects to its ingest port.
fn launch(ctx: &Ctx) -> Result<(Proc, TcpStream, SocketAddr), String> {
    let mut p = Proc::spawn(
        &ctx.spca,
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--listen",
            "127.0.0.1:0",
            "--dim",
            "256",
            "--engines",
            "1",
            "--publish-every",
            "64",
        ],
    )?;
    let ingest = p
        .read_until("listening on ")
        .ok_or("spca serve printed no ingest address")?;
    let http: SocketAddr = p
        .read_until("serving queries on http://")
        .ok_or("spca serve printed no query address")?
        .parse()
        .map_err(|e| format!("query address: {e}"))?;
    let ingest = TcpStream::connect(ingest.trim()).map_err(|e| format!("ingest: {e}"))?;
    Ok((p, ingest, http))
}

/// What the offline replay established about the answers.
struct Verified {
    /// (answer time, tuples included) of every matched steady answer.
    progress: Vec<(Instant, u64)>,
    freshness_ms: Vec<f64>,
    matched: usize,
    unmatched: usize,
    epoch_conflicts: usize,
    /// The newest snapshot an answer was matched to.
    newest: Option<EigenSystem>,
}

/// Replays the ingest sequence through one estimator, keeping the
/// snapshots the engine publishes (first initialised update, then every
/// `PUBLISH_EVERY` updates), and finds for every `/project` answer the
/// snapshot whose projection of the query equals it exactly.
fn verify(out: &Outcome, inp: &Inputs) -> Verified {
    let first_ok = out.first_ok.expect("verified runs answered");
    let answers: Vec<_> = out
        .queries
        .iter()
        .filter(|q| q.kind == Kind::Project && q.status == 200)
        .filter(|q| q.done.is_some_and(|d| d >= first_ok))
        .collect();
    let bound = |q: &loadgen::Query| {
        out.ingest
            .due_count(q.done.expect("answered"))
            .min(out.tuples_sent)
    };
    let needed = answers.iter().map(|q| bound(q)).max().unwrap_or(0);
    let cfg = data::pca_config(DIM, COMPONENTS, MEMORY);
    let (snaps, _) = span("core.robust.update", || {
        let mut pca = RobustPca::new(cfg.clone());
        let mut snaps: Vec<(u64, EigenSystem)> = Vec::new();
        for i in 0..needed {
            let row = &inp.pool.rows[i as usize % POOL].0;
            let outcome = pca.update(row).expect("planted rows are finite");
            let count = i + 1;
            if outcome.initialized && (snaps.is_empty() || count % PUBLISH_EVERY == 0) {
                let eig = pca.full_eigensystem().expect("initialised").clone();
                snaps.push((count, eig));
            }
        }
        snaps
    });
    let mut ws = QueryWorkspace::new();
    let mut v = Verified {
        progress: Vec::new(),
        freshness_ms: Vec::new(),
        matched: 0,
        unmatched: 0,
        epoch_conflicts: 0,
        newest: None,
    };
    let mut epochs: BTreeMap<u64, u64> = BTreeMap::new();
    let mut newest = 0usize;
    for q in answers {
        let x = &inp.queries.rows[q.body].0;
        let top = snaps.partition_point(|(c, _)| *c <= bound(q));
        let hit = (top.saturating_sub(MAX_SEARCH)..top).rev().find(|&k| {
            ws.project(&snaps[k].1, COMPONENTS, x)
                .is_ok_and(|c| c == q.answer.as_slice())
        });
        let Some(k) = hit else {
            v.unmatched += 1;
            continue;
        };
        v.matched += 1;
        newest = newest.max(k);
        let n = snaps[k].0;
        if let Some(e) = q.epoch {
            if *epochs.entry(e).or_insert(n) != n {
                v.epoch_conflicts += 1;
            }
        }
        let done = q.done.expect("answered");
        if out.window.is_some_and(|(w0, w1)| q.due >= w0 && q.due < w1) {
            v.progress.push((done, n));
            v.freshness_ms.push(
                done.saturating_duration_since(out.ingest.due(n - 1))
                    .as_secs_f64()
                    * 1e3,
            );
        }
    }
    // Epochs must name snapshots in publish order.
    let ns: Vec<u64> = epochs.values().copied().collect();
    v.epoch_conflicts += ns.windows(2).filter(|w| w[1] < w[0]).count();
    v.newest = (v.matched > 0).then(|| snaps[newest].1.clone());
    v
}

/// Checks and metrics shared by the CLI and in-process runs.
fn assess(r: &mut Report, out: &Outcome, inp: &Inputs, consumed: u64) -> Verified {
    let first_ok = out.first_ok.expect("assessed runs answered");
    r.tally.ops(out.tuples_sent, consumed);
    r.check(
        "every generated tuple consumed exactly once",
        consumed == out.tuples_sent,
        format!("{consumed} of {} sent", out.tuples_sent),
    );
    let after: Vec<_> = out.queries.iter().filter(|q| q.due >= first_ok).collect();
    let ok = after.iter().filter(|q| q.status == 200).count();
    r.tally.ops(after.len() as u64, ok as u64);
    r.check(
        "every query after the first epoch answered 200",
        ok == after.len(),
        format!("{ok} of {}", after.len()),
    );
    let v = verify(out, inp);
    r.check(
        "/project answers equal an offline recomputation",
        v.unmatched == 0 && v.matched > 0,
        format!("{} matched, {} unmatched", v.matched, v.unmatched),
    );
    r.check(
        "each X-Epoch names one snapshot, in publish order",
        v.epoch_conflicts == 0,
        format!("{} conflicts", v.epoch_conflicts),
    );
    match &v.newest {
        Some(eig) => {
            let dist = distance(eig, &inp.planted, PLANTED_RANK);
            r.check(
                "served basis near the planted subspace",
                dist <= MAX_DISTANCE,
                format!("sin angle {dist:.4} <= {MAX_DISTANCE}"),
            );
        }
        None => r.check(
            "served basis near the planted subspace",
            false,
            "no snapshot",
        ),
    }
    v
}

fn steady_latencies_ms(out: &Outcome) -> Vec<f64> {
    let Some((w0, w1)) = out.window else {
        return Vec::new();
    };
    out.queries
        .iter()
        .filter(|q| q.due >= w0 && q.due < w1)
        .filter_map(|q| q.done.map(|d| (d - q.due).as_secs_f64() * 1e3))
        .collect()
}

/// Tuples the engine absorbed per second over the steady window, from the
/// snapshots the answers were matched to.
fn progress_rate(v: &Verified) -> f64 {
    match (v.progress.first(), v.progress.last()) {
        (Some(&(t0, n0)), Some(&(t1, n1))) if t1 > t0 => (n1 - n0) as f64 / (t1 - t0).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// Reads the serve process's CPU time at the steady window's edges.
struct CpuWindow {
    pid: u32,
    start: Option<f64>,
    end: Option<f64>,
}

impl Observer for CpuWindow {
    fn window_start(&mut self) {
        self.start = crate::sys::proc_cpu_s(self.pid);
    }
    fn window_end(&mut self) {
        self.end = crate::sys::proc_cpu_s(self.pid);
    }
}

/// `name value` from a `/metrics` body.
fn metric_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

fn print_lateness(out: &Outcome) {
    println!(
        "loadgen lateness: ingest writes {}; query sends {}",
        Summary::of(&out.ingest_late_ms).describe("ms"),
        Summary::of(&query_late_ms(out)).describe("ms")
    );
}

fn query_late_ms(out: &Outcome) -> Vec<f64> {
    out.queries
        .iter()
        .filter_map(|q| {
            q.sent
                .map(|s| s.saturating_duration_since(q.due).as_secs_f64() * 1e3)
        })
        .collect()
}

pub fn untraced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let inp = inputs(ctx)?;
    let mut setup = Vec::new();
    for _ in 0..SETUP_TRIALS {
        let (p, ingest, http) = launch(ctx)?;
        let launched = p.launched;
        let (out, ingest) = loadgen::run(ingest, http, &plan(&inp, Duration::ZERO), &mut ())
            .map_err(|e| format!("set-up trial: {e}"))?;
        drop(ingest);
        let exit = p.finish()?;
        r.check("spca serve exits 0", exit.ok, "set-up trial");
        setup.push((out.first_ok.expect("run returns after an answer") - launched).as_secs_f64());
    }

    // The steady time is split over several launches: what varies most
    // from run to run is the state a launch happens to start in (thread
    // placement on the two cores), which pooling over launches averages.
    let steady = ctx.seconds / SESSIONS;
    let (mut fresh, mut latency, mut rates, mut cpu, mut rss) =
        (vec![], vec![], vec![], 0.0, vec![]);
    let mut outs = Vec::new();
    for _ in 0..SESSIONS {
        let (p, ingest, http) = launch(ctx)?;
        let launched = p.launched;
        let mut window = CpuWindow {
            pid: p.pid,
            start: None,
            end: None,
        };
        let (out, ingest) = loadgen::run(ingest, http, &plan(&inp, steady), &mut window)
            .map_err(|e| format!("measured run: {e}"))?;
        setup.push((out.first_ok.expect("run returns after an answer") - launched).as_secs_f64());
        let metrics = loadgen::get(http, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        let _ = ingest.shutdown(Shutdown::Write);
        drop(ingest);
        let exit = p.finish()?;
        r.check("spca serve exits 0", exit.ok, "measured run");
        let consumed = line_after(&exit.stdout, "ingest drained: ")
            .map(numbers)
            .and_then(|n| n.first().copied())
            .unwrap_or(0.0);
        let restarts = metric_value(&metrics, "spca_restarts").unwrap_or(f64::NAN)
            + metric_value(&metrics, "spca_pe_restarts").unwrap_or(f64::NAN);
        r.check(
            "zero operator and PE restarts",
            restarts == 0.0,
            format!("{restarts} restarts in /metrics"),
        );
        let v = assess(r, &out, &inp, consumed as u64);
        fresh.extend_from_slice(&v.freshness_ms);
        latency.extend(steady_latencies_ms(&out));
        rates.push(progress_rate(&v));
        cpu += window
            .end
            .zip(window.start)
            .map_or(f64::NAN, |(e, s)| e - s);
        rss.push(exit.usage.peak_rss_mb);
        outs.push(out);
    }
    record(
        r,
        "setup_s",
        "s",
        "launch to first query answered 200",
        &setup,
    );
    record(
        r,
        "tuples_per_s",
        "tuples/s",
        "served snapshots' advance / steady window, offered 10,000/s",
        &rates,
    );
    record(
        r,
        "result_p50_ms",
        "ms",
        "freshness: answer time - due time of the newest tuple served",
        &fresh,
    );
    record(
        r,
        "response_p50_ms",
        "ms",
        "query latency from due time",
        &latency,
    );
    let us: Vec<f64> = latency.iter().map(|ms| ms * 1e3).collect();
    println!("query_us: {}", Summary::of(&us).describe("us"));
    record(
        r,
        "cpu_s",
        "CPU-s",
        "user + sys of spca serve over all steady windows",
        &[cpu],
    );
    record(r, "peak_rss_mb", "MB", "peak RSS of spca serve", &rss);
    for out in &outs {
        print_lateness(out);
    }
    Ok(())
}

/// Samples the epoch store on the freshness schedule: its epoch at the
/// window's edges and a timed pin at every `/project` sent.
struct EpochObserver {
    store: Arc<EpochStore>,
    reader: EpochReader,
    /// Store epoch and the instant it was read, at each window edge.
    epochs: [(u64, Option<Instant>); 2],
    usage: (crate::sys::Usage, crate::sys::Usage),
    pins_ns: Vec<f64>,
}

impl Observer for EpochObserver {
    fn window_start(&mut self) {
        self.epochs[0] = (self.store.epoch(), Some(Instant::now()));
        self.usage.0 = crate::sys::self_usage();
    }
    fn window_end(&mut self) {
        self.epochs[1] = (self.store.epoch(), Some(Instant::now()));
        self.usage.1 = crate::sys::self_usage();
    }
    fn project_sent(&mut self) {
        let reader = &mut self.reader;
        let (_, d) = span("engine.epoch.pin", || reader.pin().map(|s| s.epoch));
        self.pins_ns.push(d.as_secs_f64() * 1e9);
    }
}

struct InProcess {
    out: Outcome,
    obs: EpochObserver,
    report: astro_stream_pca::streams::RunReport,
    stats: [u64; 4],
    server_us: (f64, f64),
    threads: usize,
}

/// The library calls behind `spca serve`: the app with an epoch store, the
/// HTTP server with the eigensystem handler, the same load generator.
fn in_process(ctx: &Ctx, inp: &Inputs) -> Result<InProcess, String> {
    let store = Arc::new(EpochStore::new());
    let mut cfg = AppConfig::new(1, data::pca_config(DIM, COMPONENTS, MEMORY));
    cfg.batch_size = 64;
    cfg.epoch_store = Some(Arc::clone(&store));
    cfg.publish_every = PUBLISH_EVERY;
    let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
    let handler_shared = Arc::clone(&shared);
    let server = HttpServer::start("127.0.0.1:0", ServerConfig::default(), move |_| {
        EigenQueryHandler::new(Arc::clone(&handler_shared))
    })
    .map_err(|e| format!("query server: {e}"))?;
    shared.set_server_stats(server.stats());
    let src = TcpSource::listen("127.0.0.1:0").map_err(|e| format!("ingest: {e}"))?;
    let ingest_addr = src.local_addr().ok_or("ingest address")?;
    let threads = crate::sys::PeakThreads::start();
    let ((graph, _handles), _) = span("engine.app.build", || {
        ParallelPcaApp::build(&cfg, Box::new(src))
    });
    let running = Engine::start(graph);
    let ingest = TcpStream::connect(ingest_addr).map_err(|e| format!("ingest: {e}"))?;
    let mut obs = EpochObserver {
        reader: store.reader().ok_or("no free epoch reader")?,
        store: Arc::clone(&store),
        epochs: [(0, None); 2],
        usage: Default::default(),
        pins_ns: Vec::new(),
    };
    let (out, _) = span("loadgen.run", || {
        loadgen::run(
            ingest,
            server.local_addr(),
            &plan(inp, ctx.seconds),
            &mut obs,
        )
    });
    let (out, ingest) = out.map_err(|e| format!("load: {e}"))?;
    drop(ingest);
    let (report, _) = span("streams.engine.join", || running.join());
    let threads = threads.stop();
    let st = server.stats();
    let stats = [
        st.accepted.load(Relaxed),
        st.served.load(Relaxed),
        st.shed.load(Relaxed),
        st.rate_limited.load(Relaxed),
    ];
    let h = shared.histogram(endpoint_index("project").expect("project endpoint"));
    let server_us = (
        h.quantile_ns(0.5) as f64 / 1e3,
        h.quantile_ns(0.99) as f64 / 1e3,
    );
    server.shutdown();
    Ok(InProcess {
        out,
        obs,
        report,
        stats,
        server_us,
        threads,
    })
}

pub fn traced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let inp = inputs(ctx)?;
    let window_cpu = |run: &InProcess| run.obs.usage.1.cpu_s() - run.obs.usage.0.cpu_s();
    crate::trace::set_enabled(false);
    let plain = in_process(ctx, &inp)?;
    crate::trace::set_enabled(true);
    let run = in_process(ctx, &inp)?;
    // Both rates are fixed, so the overhead shows in CPU time.
    r.set("trace.overhead", window_cpu(&run) / window_cpu(&plain));
    let consumed = run.report.tuples_in_matching("pca-");
    r.check(
        "zero operator and PE restarts",
        run.report.total_restarts() + run.report.total_pe_restarts() == 0,
        "run report",
    );
    let v = assess(r, &run.out, &inp, consumed);
    println!(
        "freshness_ms: {}",
        Summary::of(&v.freshness_ms).describe("ms")
    );
    print_lateness(&run.out);
    let [(e0, t0), (e1, t1)] = run.obs.epochs;
    let (t0, t1) = t0.zip(t1).ok_or("steady window edges not observed")?;
    let published = e1 - e0;
    r.set("engine.epoch.published", published as f64);
    r.set(
        "engine.epoch.publish_interval_ms",
        (t1 - t0).as_secs_f64() * 1e3 / published.max(1) as f64,
    );
    r.set("engine.epoch.pin_ns", median(&run.obs.pins_ns));
    r.set("streams.http.server_p50_us", run.server_us.0);
    r.set("streams.http.server_p99_us", run.server_us.1);
    for (name, v) in ["accepted", "served", "shed", "rate_limited"]
        .iter()
        .zip(run.stats)
    {
        r.set(format!("streams.http.{name}"), v as f64);
    }
    let p99 = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            percentile(&v, 99.0)
        }
    };
    r.set("loadgen.ingest_late_p99_ms", p99(&run.out.ingest_late_ms));
    r.set("loadgen.query_late_p99_ms", p99(&query_late_ms(&run.out)));
    layers::op_counters(r, &[&run.report], run.report.elapsed);
    r.set(
        "proc.cpu_user_s",
        run.obs.usage.1.user_s - run.obs.usage.0.user_s,
    );
    r.set(
        "proc.cpu_sys_s",
        run.obs.usage.1.sys_s - run.obs.usage.0.sys_s,
    );
    r.set("proc.threads_peak", run.threads as f64);
    // Layer probes on the streamed rows (the pin figure above, taken on
    // the live store, replaces the probe's idle-store pin).
    let pin = r.get("engine.epoch.pin_ns");
    let csv = ctx.work.join("ingest.csv");
    layers::probe(
        r,
        &inp.pool,
        &csv,
        &data::pca_config(DIM, COMPONENTS, MEMORY),
        Vec::new(),
    )?;
    if let Some(pin) = pin {
        r.set("engine.epoch.pin_ns", pin);
    }
    layers::absent(r, NOT_RUN);
    Ok(())
}

/// Layers `live-serve` does not run (one engine, no checkpoints, no
/// backfill).
const NOT_RUN: &[&str] = &[
    "engine.sync.shares",
    "engine.sync.merges",
    "streams.checkpoint.generations",
    "streams.backfill.cache_hits",
    "streams.backfill.computed",
    "streams.backfill.quarantined",
];
