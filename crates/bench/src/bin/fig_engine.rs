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
//! Unfused cells run their cross-PE data links as `LinkKind::Network`
//! with a 1 µs modeled per-message overhead — PEs that are not fused
//! communicate over the network in the paper's deployment, and every
//! real send pays a fixed per-message cost (the repo's calibrated
//! cluster cost model puts it at *hundreds* of µs on the paper's 2012
//! hardware, so 1 µs is conservative). Fused cells have no cross-PE
//! transport and are unaffected; they are the no-network control row.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_bench::json::{write_artifact, Json};
use spca_bench::{print_table, write_csv};
use spca_core::PcaConfig;
use spca_engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::ops::GeneratorSource;
use spca_streams::{Engine, DEFAULT_BATCH_SIZE};
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 16;
const TUPLES: u64 = 20_000;
const RUNS: usize = 5;
/// Modeled per-message overhead on unfused cross-PE data links (µs).
const NET_DELAY_US: u64 = 1;

fn run_once(
    samples: &Arc<Vec<Vec<f64>>>,
    n_engines: usize,
    fuse: bool,
    batch: usize,
) -> (f64, u64, u64) {
    let pca = PcaConfig::new(DIM, 2).with_memory(2000).with_init_size(20);
    let mut cfg = AppConfig::new(n_engines, pca);
    cfg.fuse = fuse;
    cfg.sync = SyncStrategy::None;
    cfg.batch_size = batch;
    cfg.network_delay_us = NET_DELAY_US;
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
    let t0 = Instant::now();
    let report = Engine::run(g);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(report.tuples_in_matching("pca-"), TUPLES);
    (
        TUPLES as f64 / dt,
        report.total_restarts(),
        report.total_pe_restarts(),
    )
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

    let report = Json::obj([
        ("schema", "engine-v1".into()),
        (
            "benchmark",
            format!(
                "engine_throughput grid (d = {DIM}, {TUPLES} tuples, median of {RUNS} runs per \
                 cell; unfused cross-PE links modeled at {NET_DELAY_US} µs per message)"
            )
            .into(),
        ),
        (
            "machine_note",
            "single container vCPU, cargo run --release, same build for both columns".into(),
        ),
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
