//! End-to-end fault-tolerance acceptance tests (the issue's bar):
//!
//! 1. A seeded 4-engine run with `panic@engine1:5000` must restart the
//!    engine from its recovery snapshot and finish with zero data-tuple
//!    loss outside the declared fault window, a final eigensystem within
//!    1e-6 subspace affinity of the fault-free run (here: bit-equal), and
//!    restart/quarantine/skipped-sync counts visible in the `RunReport`.
//! 2. A ring with one engine killed outright (no recovery directory) must
//!    still complete and converge: the failure-aware controller re-closes
//!    the ring around the corpse.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::metrics::subspace_distance;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::{normalize_fault_targets, AppConfig, ParallelPcaApp, SyncStrategy};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::Fault;
use spca_streams::ops::{GeneratorSource, SplitStrategy};
use spca_streams::{Engine, FaultPlan, Operator, RunReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const D: usize = 16;
const N_TUPLES: u64 = 40_000;

/// Non-finite observations injected at the source. All chosen ≢ 1 (mod 4)
/// so under strict round-robin none lands on engine 1 — the engine whose
/// restart must rehydrate *exactly* the state its recovery snapshot froze
/// at tuple 5000.
const NAN_SEQS: [u64; 8] = [100, 202, 303, 1000, 2002, 5003, 30_000, 30_002];

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0)
}

/// A seeded planted-subspace stream with the NaN tuples of `NAN_SEQS`
/// swapped in. Identical across calls: both the clean and the faulted run
/// see bit-identical observations in the same order.
fn seeded_source(seed: u64) -> Box<dyn Operator> {
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
    Box::new(
        GeneratorSource::new(move |seq| {
            let v = w.sample(&mut *rng.lock());
            if NAN_SEQS.contains(&seq) {
                Some((vec![f64::NAN; D], None))
            } else {
                Some((v, None))
            }
        })
        .with_max_tuples(N_TUPLES),
    )
}

fn tmp_dir(label: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("spca_ft_{}_{label}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn op_snapshot(report: &RunReport, name: &str) -> spca_streams::metrics::OpSnapshot {
    report
        .ops
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no op '{name}' in report"))
        .1
}

fn assert_eig_bits_equal(engine: usize, a: &EigenSystem, b: &EigenSystem) {
    assert_eq!(a.n_obs, b.n_obs, "engine {engine}: n_obs");
    assert_eq!(
        a.sigma2.to_bits(),
        b.sigma2.to_bits(),
        "engine {engine}: sigma2"
    );
    assert_eq!(
        a.sum_v.to_bits(),
        b.sum_v.to_bits(),
        "engine {engine}: sum_v"
    );
    for (x, y) in a.values.iter().zip(&b.values) {
        assert_eq!(x.to_bits(), y.to_bits(), "engine {engine}: eigenvalue");
    }
    for (x, y) in a.mean.iter().zip(&b.mean) {
        assert_eq!(x.to_bits(), y.to_bits(), "engine {engine}: mean");
    }
    assert_eq!(
        a.basis.sub(&b.basis).unwrap().max_abs(),
        0.0,
        "engine {engine}: basis"
    );
}

/// Deterministic app configuration for the bit-exactness test: strict
/// round-robin with a channel capacity no queue can ever fill (the split
/// sheds to the next port under backpressure, which would make routing —
/// and therefore per-engine state — timing-dependent), and the sync gate
/// forced shut so commands flow (and are counted as skips) without
/// state-changing merges.
fn deterministic_cfg(recovery: &Path) -> AppConfig {
    let mut cfg = AppConfig::new(4, pca_cfg());
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(1);
    cfg.failure_aware_sync = true;
    cfg.liveness_timeout = Duration::from_millis(200);
    cfg.heartbeat_every = 64;
    cfg.channel_capacity = 200_000;
    cfg.recovery_dir = Some(recovery.to_path_buf());
    cfg.recovery_every = 500;
    cfg
}

struct RunOutcome {
    report: RunReport,
    eigs: Vec<EigenSystem>,
    merged: EigenSystem,
    reporting: usize,
}

fn run_once(faults: Option<&str>, dir: &Path) -> RunOutcome {
    let mut cfg = deterministic_cfg(dir);
    if let Some(spec) = faults {
        cfg.faults = Some(normalize_fault_targets(FaultPlan::parse(spec).unwrap()));
    }
    let (g, h) = ParallelPcaApp::build_with_gate(&cfg, seeded_source(77), Some(u64::MAX));
    let report = Engine::run(g);
    let eigs: Vec<EigenSystem> = h
        .engine_states
        .iter()
        .map(|s| s.lock().full_eigensystem().expect("initialized").clone())
        .collect();
    let merged = h.hub.merged_estimate().expect("merged estimate");
    let reporting = h.hub.engines_reporting();
    RunOutcome {
        report,
        eigs,
        merged,
        reporting,
    }
}

#[test]
fn panicked_engine_restarts_from_snapshot_and_matches_fault_free_run() {
    let clean_dir = tmp_dir("clean");
    let fault_dir = tmp_dir("faulted");

    let clean = run_once(None, &clean_dir);
    let faulted = run_once(Some("panic@engine1:5000"), &fault_dir);

    // (a) Zero data-tuple loss outside the declared fault window: the
    // injected panic fires after its tuple is fully processed, so both
    // runs deliver every tuple exactly once.
    assert_eq!(clean.report.tuples_in_matching("pca-"), N_TUPLES);
    assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES);

    // (c) The counters are visible in the run report.
    assert_eq!(clean.report.total_restarts(), 0);
    assert_eq!(faulted.report.total_restarts(), 1);
    assert_eq!(
        op_snapshot(&faulted.report, "pca-1").faults[Fault::Restarts],
        1
    );
    assert_eq!(
        clean.report.faults()[Fault::Quarantined],
        NAN_SEQS.len() as u64,
        "every injected NaN is quarantined, none reach the eigensystem"
    );
    assert_eq!(
        faulted.report.faults()[Fault::Quarantined],
        NAN_SEQS.len() as u64
    );
    assert!(
        clean.report.total_sync_skips() > 0,
        "the forced-shut gate must count its skips"
    );
    assert!(faulted.report.total_sync_skips() > 0);

    // (b) The restarted engine rehydrated from its recovery snapshot and
    // replayed to the same state: every engine — including pca-1, which
    // died at tuple 5000 and resumed from disk — is *bit-identical* to
    // the fault-free run, which puts the merged eigensystems well within
    // the 1e-6 subspace-affinity bar.
    assert_eq!(clean.reporting, 4);
    assert_eq!(faulted.reporting, 4);
    for (i, (a, b)) in clean.eigs.iter().zip(&faulted.eigs).enumerate() {
        assert_eig_bits_equal(i, a, b);
    }
    let dist = subspace_distance(&clean.merged.basis, &faulted.merged.basis).unwrap();
    assert!(dist < 1e-6, "merged subspace distance {dist}");

    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}

#[test]
fn killed_pe_rehydrates_from_its_manifest_and_matches_fault_free_run() {
    // The whole-PE variant of the restart bar: `kill-pe@engine1:5000`
    // (normalized to pca-1) tears down the entire processing element after
    // its 5000th delivered tuple — well past warm-up, so the teardown
    // manifest carries a full eigensystem. The supervisor rebuilds the PE,
    // reconnects its frame channels, and rehydrates every member from the
    // per-PE snapshot manifest under `<recovery>/pe`; the run must finish
    // bit-identical to the fault-free one.
    let clean_dir = tmp_dir("pe_clean");
    let fault_dir = tmp_dir("pe_faulted");

    let clean = run_once(None, &clean_dir);
    let faulted = run_once(Some("kill-pe@engine1:5000"), &fault_dir);

    // No tuple lost or duplicated across the PE teardown.
    assert_eq!(clean.report.tuples_in_matching("pca-"), N_TUPLES);
    assert_eq!(faulted.report.tuples_in_matching("pca-"), N_TUPLES);

    // The restart is counted at the PE level, not the operator level.
    assert_eq!(clean.report.total_pe_restarts(), 0);
    assert!(faulted.report.total_pe_restarts() > 0);
    assert!(op_snapshot(&faulted.report, "pca-1").faults[Fault::PeRestarts] >= 1);
    assert_eq!(
        op_snapshot(&faulted.report, "pca-1").faults[Fault::Restarts],
        0,
        "a whole-PE kill must not also count an operator restart"
    );

    // Recovery wrote a consistent per-PE manifest set on disk.
    let manifests = std::fs::read_dir(fault_dir.join("pe"))
        .expect("PE checkpoint directory exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".manifest"))
        .count();
    assert!(manifests >= 1, "the killed PE left a snapshot manifest");

    // Every engine — including the one whose PE died and was rehydrated
    // from the manifest — finishes bit-identical to the fault-free run.
    assert_eq!(clean.reporting, 4);
    assert_eq!(faulted.reporting, 4);
    for (i, (a, b)) in clean.eigs.iter().zip(&faulted.eigs).enumerate() {
        assert_eig_bits_equal(i, a, b);
    }
    let dist = subspace_distance(&clean.merged.basis, &faulted.merged.basis).unwrap();
    assert!(dist < 1e-6, "merged subspace distance {dist}");

    std::fs::remove_dir_all(clean_dir).ok();
    std::fs::remove_dir_all(fault_dir).ok();
}

#[test]
fn ring_survives_a_killed_engine_and_still_converges() {
    // No recovery directory: engine 1's recover() declines and the
    // supervisor finishes it — a true crash. The failure-aware controller
    // must notice the silence, skip it as a sender, re-close the ring
    // around it, and let the survivors converge.
    let mut cfg = AppConfig::new(4, pca_cfg());
    cfg.split = SplitStrategy::RoundRobin;
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(1);
    cfg.failure_aware_sync = true;
    cfg.liveness_timeout = Duration::from_millis(30);
    cfg.heartbeat_every = 16;
    cfg.channel_capacity = 200_000;
    cfg.faults = Some(normalize_fault_targets(
        FaultPlan::parse("panic@engine1:500").unwrap(),
    ));

    // Rate-limit the stream so the run outlives the liveness timeout by a
    // wide margin on any machine: ~160 ms wall clock, with the victim
    // dying ~8 ms in.
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(78)));
    let source = Box::new(
        GeneratorSource::new(move |_| Some((w.sample(&mut *rng.lock()), None)))
            .with_max_tuples(N_TUPLES)
            .with_rate(250_000.0),
    );

    let (g, h) = ParallelPcaApp::build(&cfg, source);
    let report = Engine::run(g);

    // The run completed (no wedge) and even the corpse reported its
    // state-at-death through on_finish.
    assert_eq!(h.hub.engines_reporting(), 4);
    assert_eq!(
        op_snapshot(&report, "pca-1").faults[Fault::Restarts],
        0,
        "without a recovery snapshot the engine must not restart"
    );
    // The survivors kept every tuple routed to them; only engine 1's
    // share after its death is lost (the declared fault window).
    let survivors: u64 = [0usize, 2, 3]
        .iter()
        .map(|i| op_snapshot(&report, &format!("pca-{i}")).tuples_in)
        .sum();
    assert_eq!(survivors, 3 * (N_TUPLES / 4));

    // The controller observed the death: dead-sender ticks were skipped
    // and counted.
    assert!(
        op_snapshot(&report, "sync-controller").faults[Fault::SyncSkips] > 0,
        "controller must skip the dead engine"
    );

    // Three live engines with ring synchronization still converge to the
    // planted subspace.
    let merged = h.hub.merged_estimate().unwrap();
    let truth = PlantedSubspace::new(D, 2, 0.05);
    let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(dist < 0.3, "merged distance {dist}");
}
