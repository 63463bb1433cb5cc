//! `wire`: a planted-subspace stream (d = 32, no gaps) read by
//! `spca coordinator` and shipped over loopback TCP to one `spca worker`
//! process running 1 engine, in 64-tuple frames, with an engine snapshot
//! shipped back every 500 tuples. Closed loop: each run reads the whole
//! file. One worker, because the coordinator's source and the worker's
//! engine already fill both cores of the reference host.

use super::{distance, record};
use crate::data::{self, Rows, PLANTED_RANK};
use crate::layers;
use crate::proc::{self, line_after, numbers, Proc};
use crate::report::Report;
use crate::trace::span;
use crate::Ctx;
use astro_stream_pca::engine::{persist, run_coordinator, run_worker, DistSpec};
use astro_stream_pca::linalg::Mat;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

const ROWS: usize = 100_000;
const DIM: usize = 32;
const COMPONENTS: usize = 4;
const MEMORY: usize = 5000;
const SNAPSHOT_EVERY: u64 = 500;
/// Largest accepted sine of the largest principal angle between the
/// engine's final basis and the planted one.
const MAX_DISTANCE: f64 = 0.05;

fn inputs(ctx: &Ctx) -> Result<(Rows, Mat, PathBuf), String> {
    let (rows, planted) = data::planted(ctx.seed, ROWS, DIM);
    let csv = ctx.work.join("input.csv");
    let props = rows.write_csv(&csv).map_err(|e| e.to_string())?;
    println!("{}", props.line());
    Ok((rows, planted, csv))
}

/// Checks the engine's final snapshot: it absorbed every tuple and found
/// the planted subspace.
fn check_snapshot(r: &mut Report, snaps: &Path, planted: &Mat) {
    let path = persist::SnapshotWriter::latest_path(snaps, 0);
    match persist::read_snapshot(&path) {
        Ok(eig) => {
            r.tally.ops(ROWS as u64, eig.n_obs);
            r.check(
                "every generated tuple consumed exactly once",
                eig.n_obs as usize == ROWS,
                format!("engine absorbed {} of {ROWS}", eig.n_obs),
            );
            let dist = distance(&eig, planted, PLANTED_RANK);
            r.check(
                "engine basis near the planted subspace",
                dist <= MAX_DISTANCE,
                format!("sin angle {dist:.4} <= {MAX_DISTANCE}"),
            );
        }
        Err(e) => r.check(
            "engine snapshot readable",
            false,
            format!("{}: {e}", path.display()),
        ),
    }
}

pub fn untraced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (_rows, planted, csv) = inputs(ctx)?;
    let csv_s = csv.to_string_lossy().to_string();
    let (mut setup, mut rate, mut result, mut response, mut cpu, mut rss) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let deadline = Instant::now() + ctx.seconds;
    let mut runs = 0;
    while runs == 0 || Instant::now() < deadline {
        runs += 1;
        let snaps = proc::fresh_dir(&ctx.work, "snapshots")?;
        let snaps_s = snaps.to_string_lossy().to_string();
        let port = proc::free_port()?;
        // Wall-clock twin of the launch instant, to place file times.
        let (wall0, inst0) = (SystemTime::now(), Instant::now());
        let listen = format!("127.0.0.1:{port}");
        let coord = Proc::spawn(
            &ctx.spca,
            &[
                "coordinator",
                "--input",
                &csv_s,
                "--snapshots",
                &snaps_s,
                "--workers",
                "1",
                "--engines",
                "1",
                "--listen",
                &listen,
                "--batch",
                "64",
                "--snapshot-every",
                "500",
            ],
        )?;
        // The worker starts once the coordinator listens, as a deployment
        // script would; started earlier, its first dial fails and its
        // 100 ms retry sleep would dominate set-up time's spread.
        let limit = Duration::from_secs(120);
        proc::watch(&coord, Duration::from_micros(200), limit, || {
            proc::listening(port)
        })
        .ok_or("coordinator never listened")?;
        let worker = Proc::spawn(
            &ctx.spca,
            &[
                "worker",
                "--coordinator",
                &listen,
                "--index",
                "0",
                "--data",
                "127.0.0.1:0",
            ],
        )?;
        let pe = proc::watch(&coord, Duration::from_micros(200), limit, || {
            coord.has_pe_thread()
        });
        let first = persist::SnapshotWriter::latest_path(&snaps, 0);
        let snap = proc::watch(&coord, Duration::from_micros(500), limit, || first.exists());
        let launched = coord.launched;
        let c = coord.finish()?;
        let w = worker.finish()?;
        // The engine's final snapshot is written when it has drained its
        // input: the file's last modification ends the processing window,
        // seen without polling while the program processes.
        let drained = std::fs::metadata(&first)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(wall0).ok())
            .map(|d| inst0 + d);
        r.check("coordinator and worker exit 0", c.ok && w.ok, "exit status");
        let done = line_after(&c.stdout, "distributed run complete: ").map(numbers);
        let Some(done) = done else {
            r.check(
                "coordinator reports completion",
                false,
                "no completion line",
            );
            continue;
        };
        // "N observations across E engines on W workers (R respawned)"
        let done = |i: usize| done.get(i).copied().unwrap_or(f64::NAN);
        r.check(
            "coordinator split every row once",
            done(0) == ROWS as f64,
            format!("{} of {ROWS}", done(0)),
        );
        r.check(
            "zero worker respawns",
            done(3) == 0.0,
            format!("{} respawned", done(3)),
        );
        check_snapshot(r, &snaps, &planted);
        let (Some(pe), Some(snap), Some(drained)) = (pe, snap, drained) else {
            r.check(
                "run observed from launch to drain",
                false,
                "too fast to see",
            );
            continue;
        };
        setup.push((pe - launched).as_secs_f64());
        rate.push(ROWS as f64 / (drained - pe).as_secs_f64());
        result.push((c.at - launched).as_secs_f64() * 1e3);
        response.push((snap - launched).as_secs_f64() * 1e3);
        cpu.push(c.usage.cpu_s() + w.usage.cpu_s());
        rss.push(c.usage.peak_rss_mb + w.usage.peak_rss_mb);
    }
    println!(
        "wire: {} runs of coordinator + 1 worker over {ROWS} rows",
        setup.len()
    );
    record(
        r,
        "setup_s",
        "s",
        "coordinator launch to first tuple consumed, worker rendezvous included",
        &setup,
    );
    record(
        r,
        "tuples_per_s",
        "tuples/s",
        "rows / first tuple to the engine's final snapshot written",
        &rate,
    );
    record(
        r,
        "result_p50_ms",
        "ms",
        "launch to coordinator exit",
        &result,
    );
    record(
        r,
        "response_p50_ms",
        "ms",
        "launch to first shipped engine snapshot on disk",
        &response,
    );
    record(
        r,
        "cpu_s",
        "CPU-s",
        "user + sys of coordinator and worker",
        &cpu,
    );
    record(
        r,
        "peak_rss_mb",
        "MB",
        "coordinator peak RSS + worker peak RSS",
        &rss,
    );
    Ok(())
}

/// The coordinator in this process and the worker on a thread of it:
/// the library calls behind `spca coordinator` and `spca worker`.
fn in_process(csv: &Path, work: &Path) -> Result<InProcess, String> {
    let snaps = proc::fresh_dir(work, "snapshots")?;
    let spec = DistSpec {
        n_engines: 1,
        n_workers: 1,
        dim: DIM,
        components: COMPONENTS,
        memory: MEMORY,
        batch: 64,
        capacity: 1 << 20,
        snapshot_every: SNAPSHOT_EVERY,
        snapshots: snaps.clone(),
        recovery: None,
        coord_data: SocketAddr::from(([127, 0, 0, 1], 0)),
        worker_data: Vec::new(),
    };
    let listen: SocketAddr = format!("127.0.0.1:{}", proc::free_port()?)
        .parse()
        .map_err(|e| format!("{e}"))?;
    let worker =
        std::thread::spawn(move || run_worker(listen, 0, SocketAddr::from(([127, 0, 0, 1], 0))));
    let threads = crate::sys::PeakThreads::start();
    let before = crate::sys::self_usage();
    let data = SocketAddr::from(([127, 0, 0, 1], 0));
    let input = csv.to_path_buf();
    let (coord, _) = span("engine.distributed.run_coordinator", || {
        run_coordinator(listen, data, input, spec)
    });
    let after = crate::sys::self_usage();
    let threads = threads.stop();
    let coord = coord.map_err(|e| format!("coordinator: {e}"))?;
    let worker = worker
        .join()
        .map_err(|_| "worker thread panicked".to_string())?
        .map_err(|e| format!("worker: {e}"))?;
    Ok(InProcess {
        coord: coord.report,
        respawns: coord.respawns,
        worker,
        user_s: after.user_s - before.user_s,
        sys_s: after.sys_s - before.sys_s,
        threads,
        snaps,
    })
}

struct InProcess {
    coord: astro_stream_pca::streams::RunReport,
    respawns: usize,
    worker: astro_stream_pca::streams::RunReport,
    user_s: f64,
    sys_s: f64,
    threads: usize,
    snaps: PathBuf,
}

pub fn traced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (rows, planted, csv) = inputs(ctx)?;
    let rate = |p: &InProcess| ROWS as f64 / p.coord.elapsed.as_secs_f64();
    let (run, overhead) = super::alternate(ctx.seconds, || in_process(&csv, &ctx.work), rate)?;
    r.set("trace.overhead", overhead);
    println!(
        "wire (in-process coordinator, worker thread): {ROWS} tuples in {:.3} s = {:.0} tuples/s",
        run.coord.elapsed.as_secs_f64(),
        rate(&run)
    );
    r.check(
        "zero restarts, PE restarts and respawns",
        run.respawns == 0
            && [&run.coord, &run.worker]
                .iter()
                .all(|rep| rep.total_restarts() + rep.total_pe_restarts() == 0),
        format!("{} respawns", run.respawns),
    );
    check_snapshot(r, &run.snaps, &planted);
    layers::op_counters(r, &[&run.coord, &run.worker], run.coord.elapsed);
    r.set("proc.cpu_user_s", run.user_s);
    r.set("proc.cpu_sys_s", run.sys_s);
    r.set("proc.threads_peak", run.threads as f64);
    let cfg = data::pca_config(DIM, COMPONENTS, MEMORY);
    layers::probe(r, &rows, &csv, &cfg, Vec::new())?;
    layers::absent(r, NOT_RUN);
    Ok(())
}

/// Layers `wire` does not run (one engine: no sync controller, no merges).
const NOT_RUN: &[&str] = &[
    "engine.sync.shares",
    "engine.sync.merges",
    "streams.checkpoint.generations",
    "engine.epoch.published",
    "engine.epoch.publish_interval_ms",
    "streams.http.server_p50_us",
    "streams.http.server_p99_us",
    "streams.http.accepted",
    "streams.http.served",
    "streams.http.shed",
    "streams.http.rate_limited",
    "loadgen.ingest_late_p99_ms",
    "loadgen.query_late_p99_ms",
    "streams.backfill.cache_hits",
    "streams.backfill.computed",
    "streams.backfill.quarantined",
];
