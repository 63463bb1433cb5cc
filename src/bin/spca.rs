//! `spca` — command-line front end for the streaming-PCA system.
//!
//! Subcommands:
//!
//! * `generate` — synthesize a survey extract (gappy galaxy spectra with
//!   optional contaminants) to a CSV file.
//! * `run` — stream a CSV file (or a TCP listener) through the parallel
//!   robust-PCA application; writes an outlier report and eigensystem
//!   snapshots.
//! * `inspect` — pretty-print a persisted eigensystem snapshot.
//! * `simulate` — run the calibrated cluster simulator for a placement and
//!   report throughput (the Fig. 6/7 machinery, one configuration at a
//!   time).
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set at the workspace's five crates.

use astro_stream_pca::cluster::{ClusterSim, ClusterSpec, CostModel, Placement, SimConfig};
use astro_stream_pca::core::PcaConfig;
use astro_stream_pca::engine::{
    persist, AppConfig, AppHandles, DistSpec, EigenQueryHandler, ElasticRuntime, ElasticSupervisor,
    EpochStore, ParallelPcaApp, ScaleEvent, ServeShared, SyncStrategy,
};
use astro_stream_pca::spectra::contaminants::{self, ContaminantKind};
use astro_stream_pca::spectra::io;
use astro_stream_pca::spectra::normalize::unit_norm_masked;
use astro_stream_pca::spectra::GalaxyGenerator;
use astro_stream_pca::streams::metrics::FaultCounts;
use astro_stream_pca::streams::ops::http_server::{HttpServer, RateLimitConfig, ServerConfig};
use astro_stream_pca::streams::ops::LineSource;
use astro_stream_pca::streams::{Engine, Operator};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Flags each subcommand accepts; anything else is rejected up front.
fn allowed_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "generate" => &["out", "n", "pixels", "zmax", "contamination", "seed"],
        "coordinator" => &[
            "input",
            "listen",
            "data",
            "workers",
            "engines",
            "components",
            "memory",
            "batch",
            "capacity",
            "snapshot-every",
            "snapshots",
            "snapshot-dir",
        ],
        "worker" => &["coordinator", "index", "data"],
        "run" => &[
            "input",
            "listen",
            "url",
            "engines",
            "components",
            "memory",
            "dim",
            "sync",
            "snapshots",
            "report",
            "batch",
            "faults",
            "snapshot-dir",
            "warm-start",
            "serve",
            "serve-threads",
            "rate-limit",
            "publish-every",
            "elastic",
            "max-engines",
        ],
        "serve" => &[
            "addr",
            "input",
            "listen",
            "url",
            "engines",
            "components",
            "memory",
            "dim",
            "sync",
            "batch",
            "threads",
            "rate-limit",
            "serve-for",
            "publish-every",
        ],
        "backfill" => &[
            "input",
            "partitions",
            "state-dir",
            "workers",
            "components",
            "memory",
            "out",
        ],
        "inspect" => &["snapshot"],
        "simulate" => &["engines", "dim", "nodes", "placement"],
        _ => &[],
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest, cmd, allowed_flags(cmd)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "run" => cmd_run(&opts),
        "serve" => cmd_serve(&opts),
        "coordinator" => cmd_coordinator(&opts),
        "worker" => cmd_worker(&opts),
        "backfill" => cmd_backfill(&opts),
        "inspect" => cmd_inspect(&opts),
        "simulate" => cmd_simulate(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
spca — robust streaming PCA over parallel data streams

USAGE:
  spca generate --out extract.csv [--n 5000] [--pixels 200] [--zmax 0.2]
                [--contamination 0.05] [--seed 42]
  spca run      --input extract.csv | --listen 127.0.0.1:7070 |
                --url http://host/data.csv
                [--engines 4] [--components 4] [--memory 5000] [--dim D]
                [--sync ring|broadcast|none] [--snapshots DIR]
                [--report outliers.csv] [--batch 64]
                [--faults SPEC] [--snapshot-dir DIR]
                [--warm-start merged.snapshot]
                [--serve IP:PORT [--serve-threads 4] [--rate-limit QPS]
                 [--publish-every 64]]
                [--elastic EPOCH_MS [--max-engines N]]
  spca serve    --addr IP:PORT
                --input extract.csv | --listen 127.0.0.1:7070 |
                --url http://host/data.csv
                [--engines 4] [--components 4] [--memory 5000] [--dim D]
                [--sync ring|broadcast|none] [--batch 64] [--threads 4]
                [--rate-limit QPS] [--serve-for SECS] [--publish-every 64]
  spca coordinator --input extract.csv --snapshots DIR --workers 2
                --listen IP:PORT [--data IP:PORT] [--engines N]
                [--components 4] [--memory 5000] [--batch 64]
                [--capacity 1048576] [--snapshot-every 0]
                [--snapshot-dir DIR]
                (--workers 0 runs the same graph in-process — the
                 bit-identity baseline; --listen/--data are then unused)
  spca worker   --coordinator IP:PORT --index N --data IP:PORT
  spca backfill --input extract.csv|DIR [--partitions 8] [--workers 0]
                [--state-dir spca-state] [--components 4] [--memory 5000]
                [--out merged.snapshot]
  spca inspect  --snapshot FILE
  spca simulate [--engines 20] [--dim 250] [--nodes 10]
                [--placement rr|single|grouped2]

Every flag is --key value; unknown flags are rejected.

--faults injects deterministic failures: a comma-separated plan of
  panic@ENGINE:N, poison-nan@ENGINE:N, poison-inf@ENGINE:N,
  stall@ENGINE:N:MS, kill-pe@ENGINE:N, drop@FROM>TO:N, dup@FROM>TO:N,
  delay@FROM>TO:N:MS (e.g. \"panic@engine1:5000\"). kill-pe tears down the
  whole processing element hosting the target operator; every operator in
  it is rebuilt and rehydrated from the per-PE snapshot manifest. Enables
  failure-aware synchronization; pair with --snapshot-dir DIR so crashed
  engines restart from their latest recovery snapshot (and PEs from their
  manifests) instead of losing their state.

  Storage faults drill the persistence layer itself: io-enospc@pe:N
  (N-th PE checkpoint write fails with ENOSPC), io-torn@pe:N (N-th PE
  checkpoint write lands half its bytes), io-fsync-err (every fsync
  fails), io-corrupt@store:N (N-th backfill state-store write flips its
  last byte), io-crash@op:K (the K-th storage operation and everything
  after it fails, simulating a dead device). The run degrades instead of
  dying: failed checkpoints are skipped with backoff, torn or rotted
  files are quarantined to *.corrupt-N and recovery falls back to the
  previous manifest generation. Every absorbed fault shows up in the
  fault summary and /metrics (spca_io_faults, spca_quarantined_snapshots,
  spca_checkpoint_skips).

--elastic turns on live autoscaling: the fleet starts at --engines and a
  supervisor probes throughput and queue growth every EPOCH_MS, scaling
  out to at most --max-engines (default 2x --engines) under backlog and
  back in when capacity is wasted. A joining engine is bootstrapped from
  the fleet's merged eigensystem via the checkpoint format and held out
  of state sharing until its 1.5*N independence gate re-passes; a
  retiring engine is drained and its state folded into the survivors.
  Scale events land in the fault summary and /metrics (spca_scale_outs,
  spca_scale_ins).

serve answers live eigensystem queries over HTTP while the stream is
  ingested: POST /project, /reconstruct, /score, /topk?k=K (CSV
  observation in, CSV out; X-Epoch names the snapshot answered against),
  GET /healthz and /metrics. Operators publish epoch-versioned snapshots
  into a lock-free store every --publish-every updates; queries never
  block ingest. --rate-limit enables a per-client token bucket; overload
  sheds with 429 + Retry-After. --serve-for keeps serving the final
  eigensystem SECS after the stream drains. `run --serve IP:PORT`
  attaches the same server to a normal run.

backfill shards a historical corpus by partition key (row ranges of a
  file, or one partition per file when --input is a directory), estimates
  every partition in parallel, persists each finished eigensystem in the
  --state-dir store keyed by partition id + content hash, and tree-merges
  the partition states into one corpus-wide eigensystem. Re-running over
  an unchanged corpus is pure cache hits; appending one partition
  recomputes exactly one. Pass the merged snapshot to `spca run
  --warm-start` to splice archive history into a live stream.";

struct Opts(HashMap<String, String>);

impl Opts {
    fn parse(args: &[String], cmd: &str, allowed: &[&str]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let Some(key) = k.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{k}'"));
            };
            if !allowed.contains(&key) {
                return Err(format!("unknown flag --{key} for '{cmd}'"));
            }
            let Some(v) = it.next() else {
                return Err(format!("flag --{key} is missing a value"));
            };
            if map.insert(key.to_string(), v.clone()).is_some() {
                return Err(format!("flag --{key} given more than once"));
            }
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(|s| s.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out = PathBuf::from(opts.get("out").ok_or("--out is required")?);
    let n: usize = opts.num("n", 5000)?;
    let pixels: usize = opts.num("pixels", 200)?;
    let zmax: f64 = opts.num("zmax", 0.2)?;
    let contamination: f64 = opts.num("contamination", 0.05)?;
    let seed: u64 = opts.num("seed", 42)?;

    let gen = GalaxyGenerator::new(pixels, zmax);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut contaminated = 0usize;
    for _ in 0..n {
        if rng.gen::<f64>() < contamination {
            contaminated += 1;
            let kind = match rng.gen_range(0..3) {
                0 => ContaminantKind::Quasar,
                1 => ContaminantKind::Star,
                _ => ContaminantKind::Sky,
            };
            let mut flux = contaminants::draw(&mut rng, gen.grid(), kind);
            let mask = vec![true; pixels];
            unit_norm_masked(&mut flux, &mask);
            rows.push((flux, mask));
        } else {
            let mut s = gen.sample_with_coverage(&mut rng);
            unit_norm_masked(&mut s.flux, &s.mask);
            rows.push((s.flux, s.mask));
        }
    }
    io::write_csv_masked(&out, &rows).map_err(|e| e.to_string())?;
    println!(
        "wrote {n} spectra ({contaminated} contaminants) to {}",
        out.display()
    );
    Ok(())
}

/// Opens a CSV input for buffered reading.
fn open_input(path: &std::path::Path) -> Result<BufReader<std::fs::File>, String> {
    std::fs::File::open(path)
        .map(BufReader::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The width of the first data row, reading no further than that row.
fn first_row_width(mut input: impl BufRead) -> Result<usize, String> {
    let (mut line, mut values, mut mask) = (String::new(), Vec::new(), Vec::new());
    loop {
        line.clear();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("input has no data rows".to_string());
        }
        if io::parse_row_into(&line, &mut values, &mut mask).is_some() {
            return Ok(values.len());
        }
    }
}

/// Resolves the ingest source (exactly one of `--input`, `--listen`,
/// `--url`) and the stream dimensionality (probed from the file, or
/// `--dim` for network streams). Shared by `run` and `serve`.
fn ingest_source_and_dim(opts: &Opts) -> Result<(Box<dyn Operator>, usize), String> {
    let source: Box<dyn Operator> = match (opts.get("input"), opts.get("listen"), opts.get("url")) {
        (Some(path), None, None) => {
            if !std::path::Path::new(path).exists() {
                return Err(format!("input file '{path}' does not exist"));
            }
            Box::new(LineSource::new(path))
        }
        (None, Some(addr), None) => {
            let src = LineSource::listen(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            println!("listening on {}", src.local_addr().expect("bound"));
            Box::new(src)
        }
        (None, None, Some(url)) => Box::new(LineSource::get(url)?),
        _ => return Err("exactly one of --input, --listen or --url is required".to_string()),
    };
    let dim: usize = match opts.get("input") {
        Some(path) => first_row_width(open_input(path.as_ref())?)?,
        None => opts.num("dim", 0).and_then(|d: usize| {
            if d == 0 {
                Err("--dim is required with --listen/--url".to_string())
            } else {
                Ok(d)
            }
        })?,
    };
    Ok((source, dim))
}

/// Assembles the distributed run spec shared by `coordinator` (both the
/// socket mode and the `--workers 0` in-process baseline).
fn parse_dist_spec(opts: &Opts, input: &std::path::Path) -> Result<DistSpec, String> {
    let workers: usize = opts.num("workers", 2)?;
    let engines: usize = opts.num("engines", workers.max(1))?;
    if engines == 0 {
        return Err("--engines must be at least 1".to_string());
    }
    let components: usize = opts.num("components", 4)?;
    let memory: usize = opts.num("memory", 5000)?;
    let batch: usize = opts.num("batch", astro_stream_pca::streams::DEFAULT_BATCH_SIZE)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    // Bit-identity between runs needs the split to never shed to a
    // different engine, so default the channel capacity far above any
    // realistic corpus (see the distributed module docs).
    let capacity: usize = opts.num("capacity", 1 << 20)?;
    if capacity == 0 {
        return Err("--capacity must be at least 1".to_string());
    }
    let snapshot_every: u64 = opts.num("snapshot-every", 0)?;
    let snapshots = PathBuf::from(
        opts.get("snapshots")
            .ok_or("--snapshots is required (where engine eigensystems are persisted)")?,
    );
    let recovery = opts.get("snapshot-dir").map(PathBuf::from);
    let dim = first_row_width(open_input(input)?)?;
    if components + 2 >= dim {
        return Err(format!(
            "--components {components} too large for dimension {dim}"
        ));
    }
    Ok(DistSpec {
        n_engines: engines,
        n_workers: workers.max(1),
        dim,
        components,
        memory,
        batch,
        capacity,
        snapshot_every,
        snapshots,
        recovery,
        coord_data: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
        worker_data: Vec::new(),
    })
}

fn cmd_coordinator(opts: &Opts) -> Result<(), String> {
    let input = PathBuf::from(opts.get("input").ok_or("--input is required")?);
    if !input.exists() {
        return Err(format!("input file '{}' does not exist", input.display()));
    }
    let workers: usize = opts.num("workers", 2)?;
    let spec = parse_dist_spec(opts, &input)?;
    if workers == 0 {
        // In-process baseline: identical graph and parameters, no sockets.
        let report = astro_stream_pca::engine::run_local(&spec, Box::new(LineSource::new(&input)));
        let processed = report.op("split").map_or(0, |o| o.tuples_in);
        println!(
            "local baseline complete: {processed} observations across {} engines; snapshots in {}",
            spec.n_engines,
            spec.snapshots.display()
        );
        return Ok(());
    }
    let listen = parse_serve_addr("listen", opts.get("listen").ok_or("--listen is required")?)?;
    let data = parse_serve_addr("data", opts.get("data").unwrap_or("127.0.0.1:0"))?;
    let out = astro_stream_pca::engine::run_coordinator(listen, data, input, spec.clone())
        .map_err(|e| format!("coordinator failed: {e}"))?;
    let processed = out.report.op("split").map_or(0, |o| o.tuples_in);
    println!(
        "distributed run complete: {processed} observations across {} engines on {} workers \
         ({} respawned); snapshots in {}",
        spec.n_engines,
        spec.n_workers,
        out.respawns,
        spec.snapshots.display()
    );
    Ok(())
}

fn cmd_worker(opts: &Opts) -> Result<(), String> {
    let coordinator = parse_serve_addr(
        "coordinator",
        opts.get("coordinator").ok_or("--coordinator is required")?,
    )?;
    let index: usize = opts
        .get("index")
        .ok_or("--index is required")?
        .parse()
        .map_err(|_| {
            format!(
                "--index: cannot parse '{}'",
                opts.get("index").unwrap_or("")
            )
        })?;
    let data = parse_serve_addr("data", opts.get("data").ok_or("--data is required")?)?;
    let _report = astro_stream_pca::engine::run_worker(coordinator, index, data)
        .map_err(|e| format!("worker {index} failed: {e}"))?;
    println!("worker {index} finished");
    Ok(())
}

fn parse_sync(opts: &Opts) -> Result<SyncStrategy, String> {
    match opts.get("sync").unwrap_or("ring") {
        "ring" => Ok(SyncStrategy::Ring),
        "broadcast" => Ok(SyncStrategy::Broadcast),
        "none" => Ok(SyncStrategy::None),
        other => Err(format!("--sync: unknown strategy '{other}'")),
    }
}

/// Strict IP:PORT parse for the query-server bind address (hostnames are
/// rejected up front so a typo'd port fails fast, before any ingest I/O).
fn parse_serve_addr(flag: &str, addr: &str) -> Result<std::net::SocketAddr, String> {
    addr.parse()
        .map_err(|_| format!("--{flag}: cannot parse '{addr}' as IP:PORT (e.g. 127.0.0.1:8080)"))
}

/// Server worker-pool size validation, shared by `run --serve-threads`
/// and `serve --threads`. Each worker claims one epoch-store reader
/// slot, so the pool is bounded by
/// [`MAX_READERS`](astro_stream_pca::engine::epoch::MAX_READERS) — rejected here
/// instead of panicking inside the handler factory at server start.
fn validate_serve_threads(flag: &str, threads: usize) -> Result<(), String> {
    use astro_stream_pca::engine::epoch::MAX_READERS;
    if threads == 0 {
        return Err(format!("--{flag} must be at least 1"));
    }
    if threads > MAX_READERS {
        return Err(format!(
            "--{flag} must be at most {MAX_READERS} (epoch-store reader slots)"
        ));
    }
    Ok(())
}

fn parse_rate_limit(opts: &Opts) -> Result<Option<RateLimitConfig>, String> {
    match opts.get("rate-limit") {
        None => Ok(None),
        Some(v) => {
            let per_sec: f64 = v
                .parse()
                .map_err(|_| format!("--rate-limit: cannot parse '{v}'"))?;
            if !per_sec.is_finite() || per_sec <= 0.0 {
                return Err("--rate-limit must be a positive request rate".to_string());
            }
            Ok(Some(RateLimitConfig {
                per_sec,
                burst: (2.0 * per_sec).max(1.0),
            }))
        }
    }
}

/// Boots the eigensystem query server over `store` and wires its stats
/// into `/metrics`.
fn start_query_server(
    addr: std::net::SocketAddr,
    threads: usize,
    rate_limit: Option<RateLimitConfig>,
    shared: &Arc<ServeShared>,
) -> Result<HttpServer, String> {
    let cfg = ServerConfig {
        threads,
        rate_limit,
        ..ServerConfig::default()
    };
    let factory_shared = Arc::clone(shared);
    let server = HttpServer::start(addr, cfg, move |_| {
        EigenQueryHandler::new(Arc::clone(&factory_shared))
    })
    .map_err(|e| format!("cannot bind query server on {addr}: {e}"))?;
    shared.set_server_stats(server.stats());
    println!("serving queries on http://{}", server.local_addr());
    Ok(server)
}

/// Runs the dataflow to completion while mirroring live fault counters
/// into `/metrics`; the final mirror comes from the finished report, so
/// the endpoint and the CLI fault summary report identical values.
fn run_mirroring_counters(
    graph: astro_stream_pca::streams::GraphBuilder,
    shared: &Arc<ServeShared>,
) -> astro_stream_pca::streams::RunReport {
    let running = Engine::start(graph);
    while !running.is_finished() {
        shared.set_counters(FaultCounts::sum(&running.op_snapshots()));
        std::thread::sleep(Duration::from_millis(100));
    }
    let report = running.join();
    shared.set_counters(report.faults());
    report
}

/// Runs an elastic dataflow to completion: the autoscaling supervisor
/// ticks in the polling loop (probing throughput and queue growth, and
/// executing live rescales through the shared membership handle), while
/// fault counters are mirrored into `/metrics` when serving is attached.
fn run_elastic(
    graph: astro_stream_pca::streams::GraphBuilder,
    handles: &AppHandles,
    epoch: Duration,
    shared: Option<&Arc<ServeShared>>,
) -> (astro_stream_pca::streams::RunReport, Vec<ScaleEvent>) {
    let runtime = ElasticRuntime::new(handles).expect("app built with max_engines");
    let mut supervisor = ElasticSupervisor::new(runtime, epoch);
    let running = Engine::start(graph);
    while !running.is_finished() {
        if let Some(ev) = supervisor.tick(&running) {
            println!(
                "autoscaler: {:+} engines -> fleet of {} ({:.1} ms migration)",
                ev.action,
                ev.active_after,
                ev.latency.as_secs_f64() * 1e3
            );
        }
        if let Some(shared) = shared {
            shared.set_counters(FaultCounts::sum(&running.op_snapshots()));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let report = running.join();
    if let Some(shared) = shared {
        shared.set_counters(report.faults());
    }
    (report, supervisor.events.clone())
}

fn print_server_stats(server: &HttpServer) {
    let stats = server.stats();
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "query server: {} served, {} shed, {} rate-limited",
        stats.served.load(Relaxed),
        stats.shed.load(Relaxed),
        stats.rate_limited.load(Relaxed)
    );
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let engines: usize = opts.num("engines", 4)?;
    let components: usize = opts.num("components", 4)?;
    let memory: usize = opts.num("memory", 5000)?;
    let batch: usize = opts.num("batch", astro_stream_pca::streams::DEFAULT_BATCH_SIZE)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    // Validate the fault plan and serving flags before any I/O, so a bad
    // spec is reported even when the input is also wrong.
    let faults = opts
        .get("faults")
        .map(|spec| {
            astro_stream_pca::streams::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))
        })
        .transpose()?;
    let serve_addr = opts
        .get("serve")
        .map(|a| parse_serve_addr("serve", a))
        .transpose()?;
    let serve_threads: usize = opts.num("serve-threads", 4)?;
    let rate_limit = parse_rate_limit(opts)?;
    let publish_every: u64 = opts.num("publish-every", 64)?;
    if serve_addr.is_none() {
        for flag in ["serve-threads", "rate-limit", "publish-every"] {
            if opts.get(flag).is_some() {
                return Err(format!("--{flag} requires --serve"));
            }
        }
    }
    if serve_addr.is_some() {
        validate_serve_threads("serve-threads", serve_threads)?;
    }
    let elastic_epoch_ms: Option<u64> = opts
        .get("elastic")
        .map(|_| opts.num("elastic", 0))
        .transpose()?;
    if elastic_epoch_ms == Some(0) {
        return Err("--elastic needs a monitoring epoch of at least 1 ms".to_string());
    }
    let max_engines: usize = opts.num("max-engines", engines.saturating_mul(2).max(2))?;
    if opts.get("max-engines").is_some() && elastic_epoch_ms.is_none() {
        return Err("--max-engines requires --elastic".to_string());
    }
    if elastic_epoch_ms.is_some() && max_engines < engines {
        return Err(format!(
            "--max-engines {max_engines} is below the starting fleet of {engines} engines"
        ));
    }

    let (source, dim) = ingest_source_and_dim(opts)?;
    if components + 2 >= dim {
        return Err(format!(
            "--components {components} too large for dimension {dim}"
        ));
    }

    let pca = PcaConfig::new(dim, components)
        .with_memory(memory)
        .with_extra(2);
    let mut cfg = AppConfig::new(engines, pca);
    cfg.batch_size = batch;
    cfg.emit_outcomes = opts.get("report").is_some();
    cfg.sync = parse_sync(opts)?;
    if let Some(dir) = opts.get("snapshots") {
        cfg.snapshot_dir = Some(PathBuf::from(dir));
    }
    if let Some(plan) = faults {
        cfg.faults = Some(astro_stream_pca::engine::normalize_fault_targets(plan));
        // Injected failures only make sense with the failure-aware
        // controller watching for them.
        cfg.failure_aware_sync = true;
    }
    if let Some(dir) = opts.get("snapshot-dir") {
        cfg.recovery_dir = Some(PathBuf::from(dir));
    }
    if elastic_epoch_ms.is_some() {
        cfg.max_engines = Some(max_engines);
    }
    if let Some(path) = opts.get("warm-start") {
        let eig = persist::read_snapshot(std::path::Path::new(path))
            .map_err(|e| format!("--warm-start {path}: {e}"))?;
        if eig.dim() != dim {
            return Err(format!(
                "--warm-start snapshot has dimension {}, stream has {dim}",
                eig.dim()
            ));
        }
        println!(
            "warm-starting every engine from {path} (n_obs = {})",
            eig.n_obs
        );
        cfg.warm_start = Some(eig);
    }

    let serving = match serve_addr {
        Some(addr) => {
            let store = Arc::new(EpochStore::new());
            cfg.epoch_store = Some(Arc::clone(&store));
            cfg.publish_every = publish_every;
            let shared = Arc::new(ServeShared::new(store));
            let server = start_query_server(addr, serve_threads, rate_limit, &shared)?;
            Some((shared, server))
        }
        None => None,
    };

    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    if let Some(ms) = elastic_epoch_ms {
        println!(
            "running {engines} engines elastically (ceiling {max_engines}, epoch {ms} ms, \
             d = {dim}, p = {components}, N = {memory}) ..."
        );
    } else {
        println!("running {engines} engines (d = {dim}, p = {components}, N = {memory}) ...");
    }
    let mut scale_events: Vec<ScaleEvent> = Vec::new();
    let report = match elastic_epoch_ms {
        Some(ms) => {
            let (report, events) = run_elastic(
                graph,
                &handles,
                Duration::from_millis(ms),
                serving.as_ref().map(|(shared, _)| shared),
            );
            scale_events = events;
            report
        }
        None => match &serving {
            Some((shared, _)) => run_mirroring_counters(graph, shared),
            None => Engine::run(graph),
        },
    };
    let consumed = report.tuples_in_matching("pca-");
    println!(
        "processed {consumed} tuples in {:.2}s ({:.0} tuples/s)",
        report.elapsed.as_secs_f64(),
        consumed as f64 / report.elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(summary) = report.faults().summary() {
        println!("{summary}");
    }
    if elastic_epoch_ms.is_some() {
        let outs = scale_events.iter().filter(|e| e.action > 0).count();
        let ins = scale_events.iter().filter(|e| e.action < 0).count();
        let final_fleet = scale_events
            .last()
            .map(|e| e.active_after)
            .unwrap_or(engines);
        println!(
            "autoscaler summary: {} rescale events ({outs} out, {ins} in), \
             final fleet {final_fleet} engines",
            scale_events.len()
        );
    }

    if let Some(path) = opts.get("report") {
        let outcomes = handles.outcomes.expect("enabled above");
        let rows: Vec<Vec<f64>> = outcomes
            .lock()
            .iter()
            .map(|t| t.values.as_ref().clone())
            .collect();
        let flagged = rows.iter().filter(|r| r[4] > 0.5).count();
        io::write_csv(path, &rows).map_err(|e| e.to_string())?;
        println!(
            "outlier report: {flagged}/{} rows flagged → {path}",
            rows.len()
        );
    }
    match handles.hub.merged_estimate() {
        Ok(merged) => {
            println!(
                "merged eigenvalues: {:?}",
                merged
                    .values
                    .iter()
                    .map(|v| (v * 1e4).round() / 1e4)
                    .collect::<Vec<_>>()
            );
            println!(
                "variance captured by p components: {:.1}%",
                100.0 * merged.variance_captured(components)
            );
        }
        Err(e) => println!("no merged estimate: {e}"),
    }
    if let Some((_, server)) = serving {
        print_server_stats(&server);
        server.shutdown();
    }
    Ok(())
}

/// `spca serve` — always-on eigensystem serving: ingest the stream while
/// answering HTTP queries against the live epoch store, then (optionally)
/// keep serving the final eigensystem after the stream drains.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = parse_serve_addr("addr", opts.get("addr").ok_or("--addr is required")?)?;
    let engines: usize = opts.num("engines", 4)?;
    let components: usize = opts.num("components", 4)?;
    let memory: usize = opts.num("memory", 5000)?;
    let batch: usize = opts.num("batch", astro_stream_pca::streams::DEFAULT_BATCH_SIZE)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let threads: usize = opts.num("threads", 4)?;
    validate_serve_threads("threads", threads)?;
    let serve_for: u64 = opts.num("serve-for", 0)?;
    let rate_limit = parse_rate_limit(opts)?;
    let publish_every: u64 = opts.num("publish-every", 64)?;

    let (source, dim) = ingest_source_and_dim(opts)?;
    if components + 2 >= dim {
        return Err(format!(
            "--components {components} too large for dimension {dim}"
        ));
    }

    let pca = PcaConfig::new(dim, components)
        .with_memory(memory)
        .with_extra(2);
    let mut cfg = AppConfig::new(engines, pca);
    cfg.batch_size = batch;
    cfg.sync = parse_sync(opts)?;
    let store = Arc::new(EpochStore::new());
    cfg.epoch_store = Some(Arc::clone(&store));
    cfg.publish_every = publish_every;

    let shared = Arc::new(ServeShared::new(Arc::clone(&store)));
    let server = start_query_server(addr, threads, rate_limit, &shared)?;

    let (graph, handles) = ParallelPcaApp::build(&cfg, source);
    println!("running {engines} engines (d = {dim}, p = {components}, N = {memory}) ...");
    let report = run_mirroring_counters(graph, &shared);
    let consumed = report.tuples_in_matching("pca-");
    println!(
        "ingest drained: {consumed} tuples in {:.2}s ({:.0} tuples/s), {} epochs published",
        report.elapsed.as_secs_f64(),
        consumed as f64 / report.elapsed.as_secs_f64().max(1e-9),
        store.epoch()
    );
    match handles.hub.merged_estimate() {
        Ok(merged) => println!(
            "variance captured by p components: {:.1}%",
            100.0 * merged.variance_captured(components)
        ),
        Err(e) => println!("no merged estimate: {e}"),
    }
    if serve_for > 0 {
        println!("serving the final eigensystem for {serve_for}s more");
        std::thread::sleep(Duration::from_secs(serve_for));
    }
    print_server_stats(&server);
    server.shutdown();
    Ok(())
}

fn cmd_backfill(opts: &Opts) -> Result<(), String> {
    use astro_stream_pca::engine::{backfill, partition_csv_files, partition_csv_rows};

    // Validate flag values before any I/O, so a bad value is reported even
    // when the input is also wrong (same policy as `run --batch`).
    let n_partitions: usize = opts.num("partitions", 8)?;
    if n_partitions == 0 {
        return Err("--partitions must be at least 1".to_string());
    }
    let workers: usize = opts.num("workers", 0)?;
    let components: usize = opts.num("components", 4)?;
    let memory: usize = opts.num("memory", 5000)?;
    let state_dir = PathBuf::from(opts.get("state-dir").unwrap_or("spca-state"));
    let input = PathBuf::from(opts.get("input").ok_or("--input is required")?);
    if !input.exists() {
        return Err(format!("input '{}' does not exist", input.display()));
    }

    let partitions = if input.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&input)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == "csv").unwrap_or(false))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no .csv files in '{}'", input.display()));
        }
        partition_csv_files(&files).map_err(|e| e.to_string())?
    } else {
        partition_csv_rows(&input, n_partitions).map_err(|e| e.to_string())?
    };

    // Probe the dimensionality from the first data row of the first
    // partition (the partitions already hold the corpus bytes).
    let first_text = partitions[0].payload.as_str().map_err(|e| e.to_string())?;
    let dim = first_row_width(first_text.as_bytes())?;
    if components + 2 >= dim {
        return Err(format!(
            "--components {components} too large for dimension {dim}"
        ));
    }

    let pca = PcaConfig::new(dim, components)
        .with_memory(memory)
        .with_extra(2);
    let cfg = astro_stream_pca::engine::BackfillConfig {
        pca,
        workers,
        state_dir,
    };
    let outcome = backfill(&cfg, &partitions).map_err(|e| e.to_string())?;
    println!(
        "backfill: {} partitions ({} cache hits, {} computed, {} quarantined) \
         on {} workers in {:.2}s",
        outcome.stats.partitions,
        outcome.stats.cache_hits,
        outcome.stats.computed,
        outcome.stats.quarantined,
        outcome.stats.workers,
        outcome.stats.wall.as_secs_f64()
    );
    let merged = &outcome.merged;
    println!(
        "merged eigensystem: d = {}, components = {}, n_obs = {}",
        merged.dim(),
        merged.n_components(),
        merged.n_obs
    );
    println!(
        "merged eigenvalues: {:?}",
        merged
            .values
            .iter()
            .take(components)
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    if let Some(out) = opts.get("out") {
        persist::write_snapshot(std::path::Path::new(out), merged).map_err(|e| e.to_string())?;
        println!("wrote merged snapshot to {out}");
    }
    Ok(())
}

fn cmd_inspect(opts: &Opts) -> Result<(), String> {
    let path = PathBuf::from(opts.get("snapshot").ok_or("--snapshot is required")?);
    let eig = persist::read_snapshot(&path).map_err(|e| e.to_string())?;
    println!("snapshot: {}", path.display());
    println!("  dimension  : {}", eig.dim());
    println!("  components : {}", eig.n_components());
    println!("  n_obs      : {}", eig.n_obs);
    println!("  sigma^2    : {:.6e}", eig.sigma2);
    println!(
        "  sums       : u {:.3}  v {:.3}  q {:.3e}",
        eig.sum_u, eig.sum_v, eig.sum_q
    );
    println!("  eigenvalues:");
    for (k, v) in eig.values.iter().enumerate() {
        let frac = 100.0 * eig.variance_captured(k + 1);
        println!(
            "    λ{:<2} = {v:<12.6e} (cumulative variance {frac:.1}%)",
            k + 1
        );
    }
    Ok(())
}

fn cmd_simulate(opts: &Opts) -> Result<(), String> {
    let engines: usize = opts.num("engines", 20)?;
    let dim: usize = opts.num("dim", 250)?;
    let nodes: usize = opts.num("nodes", 10)?;
    let spec = ClusterSpec {
        n_nodes: nodes,
        ..ClusterSpec::paper()
    };
    let placement = match opts.get("placement").unwrap_or("rr") {
        "rr" => Placement::round_robin(engines, nodes),
        "single" => Placement::single_node(engines),
        "grouped2" => Placement::grouped(engines, 2, nodes),
        other => return Err(format!("--placement: unknown '{other}'")),
    };
    let cfg = SimConfig {
        dim,
        ..Default::default()
    };
    let report = ClusterSim::new(spec, CostModel::paper(), placement, cfg).run();
    println!("simulated {engines} engines on {nodes} nodes at d = {dim}:");
    println!(
        "  throughput : {:.0} tuples/s ({:.0}/thread)",
        report.throughput,
        report.per_thread()
    );
    println!(
        "  network    : {:.1} MB transferred",
        report.network_bytes / 1e6
    );
    println!("  syncs      : {}", report.syncs);
    Ok(())
}
