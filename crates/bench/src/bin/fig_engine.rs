//! Engine-transport throughput grid: fused/unfused × 1/2/4 engines,
//! per-tuple transport (batch size 1) vs. the batched frame transport.
//!
//! This is the measurement behind the recorded `BENCH_engine.json`
//! artifact: the cross-PE batching optimization must hold its speedup on
//! the full application graph, not just in microbenchmarks. The workload
//! is deliberately transport-heavy (modest dimensionality, pre-generated
//! observations) so the number isolates what the transport change buys;
//! at paper-scale dimensions the PCA update dominates and batching is
//! simply neutral.
//!
//! Unfused cells split the application graph across two loopback
//! [`NetTransport`] partitions in this process, laid out like `spca
//! coordinator` with one `spca worker`: the `pca-*` operators on one side,
//! source, split and monitor on the other. Every tuple the split hands an
//! engine crosses real TCP, so each frame pays the per-message encode,
//! syscall and wakeup cost that batching amortizes. Fused cells have no
//! cross-PE transport; they are the no-network control row.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::json::{write_artifact, Json};
use spca_bench::{print_table, write_csv};
use spca_core::PcaConfig;
use spca_engine::distributed::{coordinator_partition, worker_partition};
use spca_engine::{
    register_wire_codecs, stub_source, AppConfig, DistSpec, ParallelPcaApp, SyncStrategy,
};
use spca_spectra::PlantedSubspace;
use spca_streams::engine::RunningEngine;
use spca_streams::ops::GeneratorSource;
use spca_streams::{
    Engine, GraphBuilder, NetPartition, NetTransport, RunReport, DEFAULT_BATCH_SIZE,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 16;
const TUPLES: u64 = 20_000;
const RUNS: usize = 5;
const COMPONENTS: usize = 2;
const MEMORY: usize = 2000;

fn run_once(
    samples: &Arc<Vec<Vec<f64>>>,
    n_engines: usize,
    fuse: bool,
    batch: usize,
) -> (f64, u64, u64) {
    let pca = PcaConfig::new(DIM, COMPONENTS)
        .with_memory(MEMORY)
        .with_init_size(20);
    let mut cfg = AppConfig::new(n_engines, pca);
    cfg.fuse = fuse;
    cfg.sync = SyncStrategy::None;
    cfg.batch_size = batch;
    let data = Arc::clone(samples);
    let cursor = Arc::new(Mutex::new(0usize));
    let source = Box::new(
        GeneratorSource::new(move |_| {
            let mut i = cursor.lock();
            let row = data[*i % data.len()].clone();
            *i += 1;
            Some((row, None))
        })
        .with_max_tuples(TUPLES),
    );
    let (g, _h) = ParallelPcaApp::build(&cfg, source);
    let parts = if fuse {
        vec![(g, None)]
    } else {
        loopback_partitions(&cfg, g)
    };
    let t0 = Instant::now();
    let running: Vec<RunningEngine> = parts
        .into_iter()
        .map(|(g, part)| match part {
            Some(part) => Engine::start_in_partition(g, part),
            None => Engine::start(g),
        })
        .collect();
    let reports: Vec<RunReport> = running.into_iter().map(RunningEngine::join).collect();
    let dt = t0.elapsed().as_secs_f64();
    let tuples: u64 = reports.iter().map(|r| r.tuples_in_matching("pca-")).sum();
    assert_eq!(tuples, TUPLES);
    (
        TUPLES as f64 / dt,
        reports.iter().map(RunReport::total_restarts).sum(),
        reports.iter().map(RunReport::total_pe_restarts).sum(),
    )
}

/// Splits the unfused graph the way `spca coordinator` and one `spca
/// worker` do, each side on its own loopback transport: the worker graph
/// holds every engine, the coordinator graph (`coord`, which carries the
/// real source) everything else. The worker comes first so its transport
/// is listening before the coordinator starts sending.
fn loopback_partitions(
    cfg: &AppConfig,
    coord: GraphBuilder,
) -> Vec<(GraphBuilder, Option<NetPartition>)> {
    let (worker, _h) = ParallelPcaApp::build(cfg, stub_source());
    let coord_net = NetTransport::bind("127.0.0.1:0").expect("bind coordinator transport");
    let worker_net = NetTransport::bind("127.0.0.1:0").expect("bind worker transport");
    // Only the engine count and the addresses decide the partitions; the
    // other fields mirror `cfg` for the record.
    let spec = DistSpec {
        n_engines: cfg.n_engines,
        n_workers: 1,
        dim: DIM,
        components: COMPONENTS,
        memory: MEMORY,
        batch: cfg.batch_size,
        capacity: cfg.channel_capacity,
        snapshot_every: cfg.snapshot_every,
        snapshots: PathBuf::new(),
        recovery: None,
        coord_data: coord_net.local_addr(),
        worker_data: vec![worker_net.local_addr()],
    };
    let coord_part = coordinator_partition(&spec, &coord, coord_net);
    let worker_part = worker_partition(&spec, &worker, worker_net, 0);
    vec![(worker, Some(worker_part)), (coord, Some(coord_part))]
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn measure(
    samples: &Arc<Vec<Vec<f64>>>,
    n_engines: usize,
    fuse: bool,
    batch: usize,
) -> (f64, u64, u64) {
    let mut restarts = 0;
    let mut pe_restarts = 0;
    let mut rates: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (rate, r, pr) = run_once(samples, n_engines, fuse, batch);
            restarts += r;
            pe_restarts += pr;
            rate
        })
        .collect();
    (median(&mut rates), restarts, pe_restarts)
}

fn main() {
    // Engine snapshots cross the partition boundary in unfused cells.
    register_wire_codecs();
    // Pre-generate the stream so the generator cost is identical (and
    // negligible) in every cell.
    let w = PlantedSubspace::new(DIM, 2, 0.05);
    let mut rng = StdRng::seed_from_u64(42);
    let samples = Arc::new(
        (0..TUPLES as usize)
            .map(|_| w.sample(&mut rng))
            .collect::<Vec<_>>(),
    );

    let mut rows = Vec::new();
    let mut report_rows = Vec::new();
    let mut total_restarts = 0;
    let mut total_pe_restarts = 0;
    for fuse in [true, false] {
        for engines in [1usize, 2, 4] {
            let (batch1, r1, pr1) = measure(&samples, engines, fuse, 1);
            let (batched, rb, prb) = measure(&samples, engines, fuse, DEFAULT_BATCH_SIZE);
            total_restarts += r1 + rb;
            total_pe_restarts += pr1 + prb;
            let speedup = batched / batch1;
            rows.push(vec![
                if fuse { 1.0 } else { 0.0 },
                engines as f64,
                batch1,
                batched,
                speedup,
            ]);
            report_rows.push(Json::obj([
                (
                    "config",
                    format!("{}-{engines}", if fuse { "fused" } else { "unfused" }).into(),
                ),
                ("fused", fuse.into()),
                ("engines", engines.into()),
                ("batch1_tuples_per_s", batch1.into()),
                ("batched_tuples_per_s", batched.into()),
                ("speedup", speedup.into()),
            ]));
            if !fuse && engines == 2 {
                println!(
                    "unfused 2-engine speedup: {speedup:.2}x ({batch1:.0} → {batched:.0} tuples/s)"
                );
            }
        }
    }

    let header = [
        "fused",
        "engines",
        "batch1_tuples_per_s",
        "batched_tuples_per_s",
        "speedup",
    ];
    print_table("engine transport throughput", &header, &rows);
    let csv = write_csv("fig_engine.csv", &header, &rows);
    println!("\nwrote {}", csv.display());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::obj([
        ("schema", "engine-v1".into()),
        (
            "benchmark",
            format!(
                "engine_throughput grid (d = {DIM}, {TUPLES} tuples, median of {RUNS} runs per \
                 cell; unfused cells split across two loopback TCP partitions)"
            )
            .into(),
        ),
        (
            "machine_note",
            "cargo run --release, same build for both columns".into(),
        ),
        ("cores", cores.into()),
        ("tuples", TUPLES.into()),
        ("dim", DIM.into()),
        ("batch", DEFAULT_BATCH_SIZE.into()),
        (
            "target",
            "unfused 2-engine batched ≥ 1.5x over batch-size-1".into(),
        ),
        ("restarts", total_restarts.into()),
        ("pe_restarts", total_pe_restarts.into()),
        ("results", report_rows.into()),
    ]);
    write_artifact("BENCH_engine.json", &report);
}
