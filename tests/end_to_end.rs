//! Cross-crate integration tests: the full system exercised end to end.

use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{batch, PcaConfig, RhoKind, RobustPca};
use astro_stream_pca::engine::{AppConfig, ParallelPcaApp, SyncStrategy};
use astro_stream_pca::spectra::outliers::{OutlierInjector, OutlierKind};
use astro_stream_pca::spectra::{GalaxyGenerator, PlantedSubspace};
use astro_stream_pca::streams::ops::{GeneratorSource, SplitStrategy};
use astro_stream_pca::streams::Engine;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const D: usize = 32;
const RANK: usize = 3;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, RANK).with_memory(1000).with_init_size(40)
}

fn planted_source(
    n: u64,
    seed: u64,
    outlier_rate: f64,
) -> Box<dyn astro_stream_pca::streams::Operator> {
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let inj = OutlierInjector::new(outlier_rate).only(OutlierKind::CosmicRay);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
    Box::new(
        GeneratorSource::new(move |_| {
            let mut g = rng.lock();
            let mut x = w.sample(&mut *g);
            inj.maybe_contaminate(&mut *g, &mut x);
            Some((x, None))
        })
        .with_max_tuples(n),
    )
}

#[test]
fn parallel_run_recovers_planted_subspace() {
    let mut cfg = AppConfig::new(4, pca_cfg());
    cfg.sync_period = Duration::from_millis(25);
    let (g, h) = ParallelPcaApp::build(&cfg, planted_source(8000, 1, 0.0));
    let report = Engine::run(g);
    assert_eq!(report.tuples_in_matching("pca-"), 8000, "tuple loss");
    let merged = h.hub.merged_estimate().unwrap();
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(dist < 0.2, "merged subspace error {dist}");
}

#[test]
fn parallel_run_with_contamination_stays_robust() {
    let mut cfg = AppConfig::new(3, pca_cfg());
    cfg.sync_period = Duration::from_millis(25);
    cfg.emit_outcomes = true;
    let (g, h) = ParallelPcaApp::build(&cfg, planted_source(6000, 2, 0.05));
    Engine::run(g);
    let merged = h.hub.merged_estimate().unwrap();
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(dist < 0.25, "contaminated merged error {dist}");
    // A healthy share of the ~5% injected outliers must be flagged in the
    // outcome feed.
    let outcomes = h.outcomes.unwrap();
    let flagged = outcomes.lock().iter().filter(|r| r.values[4] > 0.5).count();
    assert!(flagged > 100, "only {flagged} outliers flagged");
}

#[test]
fn every_sync_strategy_converges() {
    for sync in [
        SyncStrategy::Ring,
        SyncStrategy::Broadcast,
        SyncStrategy::Groups(2),
        SyncStrategy::None,
    ] {
        let mut cfg = AppConfig::new(4, pca_cfg());
        cfg.sync = sync;
        cfg.sync_period = Duration::from_millis(20);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(6000, 3, 0.0));
        Engine::run(g);
        assert_eq!(h.hub.engines_reporting(), 4, "{sync:?}: missing snapshots");
        let merged = h.hub.merged_estimate().unwrap();
        let truth = PlantedSubspace::new(D, RANK, 0.05);
        let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
        assert!(dist < 0.3, "{sync:?}: merged error {dist}");
    }
}

#[test]
fn every_split_strategy_delivers_all_tuples() {
    for split in [
        SplitStrategy::Random,
        SplitStrategy::RoundRobin,
        SplitStrategy::LeastLoaded,
    ] {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.split = split;
        let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(3000, 4, 0.0));
        let report = Engine::run(g);
        assert_eq!(
            report.tuples_in_matching("pca-"),
            3000,
            "{split:?} lost tuples"
        );
    }
}

#[test]
fn fused_and_distributed_agree_statistically() {
    let run = |fuse: bool| {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.fuse = fuse;
        cfg.sync_period = Duration::from_millis(20);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(5000, 5, 0.0));
        Engine::run(g);
        h.hub.merged_estimate().unwrap()
    };
    let fused = run(true);
    let distributed = run(false);
    // Compare the reported p components; the extra gap-correction
    // components track noise directions and are not comparable.
    let d = subspace_distance(
        &fused.truncated(RANK).basis,
        &distributed.truncated(RANK).basis,
    )
    .unwrap();
    assert!(d < 0.2, "fusion changed the statistics: {d}");
    // Counts are only comparable as lower bounds: mid-stream merges (whose
    // timing differs between placements) double-count shared history.
    assert!(fused.n_obs >= 5000 && distributed.n_obs >= 5000);
}

#[test]
fn gappy_galaxy_stream_through_parallel_app() {
    // End-to-end: masked spectra flow through split + engines and converge.
    let n_pixels = 80;
    let gen = GalaxyGenerator::new(n_pixels, 0.2);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(6)));
    let gen2 = gen.clone();
    let source = Box::new(
        GeneratorSource::new(move |_| {
            let mut g = rng.lock();
            let mut s = gen2.sample_with_coverage(&mut *g);
            astro_stream_pca::spectra::normalize::unit_norm_masked(&mut s.flux, &s.mask);
            Some((s.flux, Some(s.mask)))
        })
        .with_max_tuples(4000),
    );
    let pca = PcaConfig::new(n_pixels, 3)
        .with_memory(2000)
        .with_init_size(50)
        .with_extra(2);
    let mut cfg = AppConfig::new(2, pca);
    cfg.sync_period = Duration::from_millis(30);
    let (g, h) = ParallelPcaApp::build(&cfg, source);
    Engine::run(g);
    let merged = h.hub.merged_estimate().unwrap();
    merged.check_invariants().unwrap();
    assert_eq!(merged.n_obs, 4000);
    // The galaxy manifold is low-rank: 3 components capture most variance.
    assert!(
        merged.variance_captured(3) > 0.6,
        "variance captured {}",
        merged.variance_captured(3)
    );
}

#[test]
fn streaming_approximates_batch_robust() {
    // The streaming robust estimator should approach the Maronna batch
    // solution on a fixed contaminated dataset.
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let inj = OutlierInjector::new(0.08).only(OutlierKind::CosmicRay);
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<Vec<f64>> = (0..4000)
        .map(|_| {
            let mut x = truth.sample(&mut rng);
            inj.maybe_contaminate(&mut rng, &mut x);
            x
        })
        .collect();

    let (batch_eig, _) = batch::batch_robust_pca(
        &data,
        RANK,
        &astro_stream_pca::core::rho::Bisquare::default(),
        0.5,
        40,
    )
    .unwrap();

    let mut streaming = RobustPca::new(pca_cfg().with_rho(RhoKind::Bisquare(9.0)));
    for x in &data {
        streaming.update(x).unwrap();
    }
    let s_eig = streaming.eigensystem();
    let dist = subspace_distance(&s_eig.basis, &batch_eig.basis).unwrap();
    assert!(dist < 0.2, "streaming vs batch robust distance {dist}");
}

#[test]
fn stop_midstream_yields_usable_partial_result() {
    // The in-flight results story: stop the app early, the hub still holds
    // a usable estimate.
    let cfg = AppConfig::new(2, pca_cfg());
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(8)));
    let source = Box::new(GeneratorSource::new(move |_| {
        Some((w.sample(&mut *rng.lock()), None))
    })); // unbounded
    let (g, h) = ParallelPcaApp::build(&cfg, source);
    let running = Engine::start(g);
    // Let it process for a while, then stop cooperatively.
    std::thread::sleep(Duration::from_millis(400));
    running.stop();
    let report = running.join();
    let n = report.tuples_in_matching("pca-");
    assert!(n > 100, "too few tuples before stop: {n}");
    let merged = h.hub.merged_estimate().unwrap();
    // Mid-stream ring merges double-count shared history; the merged count
    // is an upper bound on distinct observations.
    assert!(merged.n_obs >= n);
    merged.check_invariants().unwrap();
}

#[test]
fn malformed_tuples_are_dropped_not_fatal() {
    // Failure injection: 10% of tuples are malformed (wrong dimension or
    // NaN). Engines must drop them, keep running, and converge on the
    // valid remainder.
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(21)));
    let source = Box::new(
        GeneratorSource::new(move |seq| {
            let mut g = rng.lock();
            let x = match seq % 10 {
                7 => vec![1.0; D / 2], // wrong dimension
                8 => {
                    let mut bad = w.sample(&mut *g);
                    bad[3] = f64::NAN;
                    bad
                }
                _ => w.sample(&mut *g),
            };
            Some((x, None))
        })
        .with_max_tuples(5000),
    );
    let mut cfg = AppConfig::new(2, pca_cfg());
    cfg.sync = SyncStrategy::None;
    let (g, h) = ParallelPcaApp::build(&cfg, source);
    let report = Engine::run(g);
    // All 5000 tuples were delivered to engines; 20% were dropped inside.
    assert_eq!(report.tuples_in_matching("pca-"), 5000);
    let merged = h.hub.merged_estimate().unwrap();
    assert_eq!(merged.n_obs, 4000, "exactly the valid tuples processed");
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let dist = subspace_distance(&merged.truncated(RANK).basis, truth.basis()).unwrap();
    assert!(
        dist < 0.2,
        "convergence impaired by malformed tuples: {dist}"
    );
}

#[test]
fn modeled_network_delay_runs_correctly() {
    // The LinkKind::Network path with a real (small) per-message overhead:
    // semantics identical, just slower.
    let mut cfg = AppConfig::new(2, pca_cfg());
    cfg.network_delay_us = 20;
    cfg.sync = SyncStrategy::None;
    let (g, h) = ParallelPcaApp::build(&cfg, planted_source(800, 22, 0.0));
    let report = Engine::run(g);
    assert_eq!(report.tuples_in_matching("pca-"), 800);
    // Data links carried the traffic and accounted bytes.
    let data_bytes: u64 = report
        .links
        .iter()
        .filter(|l| l.from == "split")
        .map(|l| l.bytes())
        .sum();
    assert!(
        data_bytes > 800 * (D as u64 * 8),
        "bytes under-accounted: {data_bytes}"
    );
    assert_eq!(h.hub.engines_reporting(), 2);
}

#[test]
fn quarantine_captures_flagged_observations_verbatim() {
    // Outliers must land in the quarantine feed with their original values
    // — available "for further processing" — while the eigensystem ignores
    // them.
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(23)));
    let source = Box::new(
        GeneratorSource::new(move |seq| {
            let mut g = rng.lock();
            if seq % 25 == 24 {
                // A marked spike we can recognize downstream.
                let mut x = vec![0.0; D];
                x[9] = 500.0 + seq as f64;
                Some((x, None))
            } else {
                Some((w.sample(&mut *g), None))
            }
        })
        .with_max_tuples(5000),
    );
    let mut cfg = AppConfig::new(2, pca_cfg());
    cfg.quarantine = true;
    cfg.sync = SyncStrategy::None;
    let (g, h) = ParallelPcaApp::build(&cfg, source);
    Engine::run(g);
    let q = h.quarantined.unwrap();
    let quarantined = q.lock();
    // 200 spikes injected; warm-up swallows a few per engine.
    assert!(
        quarantined.len() >= 150,
        "only {} quarantined",
        quarantined.len()
    );
    // Verbatim forwarding: the spike signature survives.
    assert!(quarantined.iter().all(|t| t.values[9] >= 500.0));
    // And the model ignored them.
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let merged = h.hub.merged_estimate().unwrap();
    let dist = subspace_distance(&merged.truncated(RANK).basis, truth.basis()).unwrap();
    assert!(dist < 0.2, "spikes contaminated the estimate: {dist}");
}

#[test]
fn tcp_fed_parallel_application() {
    // Full network deployment shape: a producer process (graph) ships
    // tuples over TCP; the analysis application ingests them through a
    // LineSource and runs the usual split + engines.
    use astro_stream_pca::streams::ops::{LineSource, TcpSink};
    use astro_stream_pca::streams::{GraphBuilder, PortKind};

    let tcp_in = LineSource::listen("127.0.0.1:0").expect("bind");
    let addr = tcp_in.local_addr().expect("bound");

    let cfg = AppConfig::new(2, pca_cfg());
    let (g, h) = ParallelPcaApp::build(&cfg, Box::new(tcp_in));
    let consumer = Engine::start(g);

    // Producer graph in this same process.
    let w = PlantedSubspace::new(D, RANK, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(24)));
    let mut p = GraphBuilder::new();
    let gen = p.add_source(
        "gen",
        Box::new(
            GeneratorSource::new(move |_| Some((w.sample(&mut *rng.lock()), None)))
                .with_max_tuples(2500),
        ),
    );
    let out = p.add_op("tcp-out", Box::new(TcpSink::connect(addr)));
    p.connect(gen, 0, out, PortKind::Data);
    Engine::run(p);

    let report = consumer.join();
    assert_eq!(
        report.tuples_in_matching("pca-"),
        2500,
        "tuples lost over TCP"
    );
    let merged = h.hub.merged_estimate().unwrap();
    let truth = PlantedSubspace::new(D, RANK, 0.05);
    let dist = subspace_distance(&merged.truncated(RANK).basis, truth.basis()).unwrap();
    assert!(dist < 0.25, "TCP-fed estimate off: {dist}");
}
