//! Elastic autoscaling acceptance tests (the issue's bar):
//!
//! 1. A scripted rescale — scale out mid-stream, scale back in before the
//!    end — must lose zero tuples, count both membership changes in the
//!    run report, bootstrap the joiner from the fleet's merged history,
//!    and finish within the documented subspace tolerance of a
//!    fixed-fleet reference run.
//! 2. A joining engine shares only after the `1.5·N` independence gate
//!    re-passes on *fresh* observations — bootstrapped history alone must
//!    not open the gate.
//! 3. `kill-pe` landing during an in-flight scale-out: the PE rehydrates,
//!    the admitted engine stays in the ring, and the run still converges.
//! 4. `io-fsync-err` active across the retiring engine's final drain and
//!    merge: persistence degrades (counters incremented), no engine dies,
//!    and the merged estimate stays within tolerance.
//! 5. A load-swing run under the live `ElasticSupervisor`: the saturated
//!    phase scales the fleet out, the trickle phase shrinks it again, and
//!    every tuple is processed exactly once across both rescales.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spca_core::metrics::subspace_distance;
use spca_core::{EigenSystem, PcaConfig};
use spca_engine::{
    normalize_fault_targets, AppConfig, ElasticRuntime, ElasticSupervisor, ParallelPcaApp,
    StreamingPcaOp, SyncCommand, SyncStrategy, KIND_SYNC_COMMAND,
};
use spca_spectra::PlantedSubspace;
use spca_streams::metrics::Fault;
use spca_streams::operator::testing::with_ctx;
use spca_streams::ops::GeneratorSource;
use spca_streams::{ControlTuple, DataTuple, Engine, FaultPlan, Operator};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const D: usize = 16;

/// Documented consistency bound: the elastic run's merged eigensystem and
/// a fixed-fleet reference over the same observations must agree to this
/// subspace distance (both independently land within 0.2 of the planted
/// truth; see `fig_elastic` for the benchmarked figure).
const CONSISTENCY_TOL: f64 = 0.25;

fn pca_cfg() -> PcaConfig {
    PcaConfig::new(D, 2)
        .with_memory(300)
        .with_init_size(20)
        .with_extra(0)
}

/// Seeded planted-subspace stream. Identical draws across calls with the
/// same seed, so the elastic run and its fixed-fleet reference see the
/// same observations (pacing changes timing, never values).
fn seeded_source(seed: u64, n: u64, rate: Option<f64>) -> Box<dyn Operator> {
    let w = PlantedSubspace::new(D, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
    let mut src =
        GeneratorSource::new(move |_| Some((w.sample(&mut *rng.lock()), None))).with_max_tuples(n);
    if let Some(per_sec) = rate {
        src = src.with_rate(per_sec);
    }
    Box::new(src)
}

/// Elastic app config: `start` engines active out of `max` provisioned.
/// Elastic mode forces failure-aware mesh wiring internally.
fn elastic_cfg(start: usize, max: usize) -> AppConfig {
    let mut cfg = AppConfig::new(start, pca_cfg());
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(5);
    cfg.heartbeat_every = 32;
    cfg.liveness_timeout = Duration::from_millis(500);
    cfg.channel_capacity = 4096;
    cfg.max_engines = Some(max);
    cfg
}

fn tmp_dir(label: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("spca_elastic_{}_{label}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Fixed-fleet reference: one engine, unpaced, same observations.
fn fixed_fleet_reference(seed: u64, n: u64) -> EigenSystem {
    let cfg = AppConfig::new(1, pca_cfg());
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(seed, n, None));
    Engine::run(g);
    let eig = h.engine_states[0]
        .lock()
        .full_eigensystem()
        .expect("reference run initialized")
        .clone();
    eig
}

fn assert_near_truth_and_reference(merged: &EigenSystem, reference: &EigenSystem, dim: usize) {
    let truth = PlantedSubspace::new(dim, 2, 0.05);
    let to_truth = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(
        to_truth < 0.2,
        "merged estimate vs planted truth: {to_truth}"
    );
    let to_ref = subspace_distance(&merged.basis, &reference.basis).unwrap();
    assert!(
        to_ref < CONSISTENCY_TOL,
        "merged estimate vs fixed-fleet reference: {to_ref} (tolerance {CONSISTENCY_TOL})"
    );
}

#[test]
fn scripted_rescale_conserves_tuples_and_matches_fixed_fleet_reference() {
    const N: u64 = 40_000;
    let cfg = elastic_cfg(1, 3);
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(11, N, Some(30_000.0)));
    let rt = ElasticRuntime::new(&h).expect("elastic handles expose a runtime");
    let running = Engine::start(g);

    // Scale out once engine 0 is warmed up well past init.
    assert!(
        wait_until(Duration::from_secs(30), || h.engine_states[0]
            .lock()
            .n_obs()
            > 5_000),
        "engine 0 never warmed up"
    );
    let donor_obs = h.engine_states[0].lock().n_obs();
    rt.scale_out().expect("scale out");
    assert_eq!(rt.active(), 2);

    // The joiner was bootstrapped from the fleet's merged eigensystem in
    // checkpoint format: it starts with the donors' history, not zero.
    assert!(
        h.engine_states[1].lock().n_obs() >= donor_obs / 2,
        "joiner must carry bootstrapped history"
    );

    // Let the joiner take live traffic, then retire it again.
    let at_join = h.engine_states[1].lock().n_obs();
    assert!(
        wait_until(Duration::from_secs(30), || h.engine_states[1]
            .lock()
            .n_obs()
            > at_join + 2_000),
        "joiner never took live traffic"
    );
    rt.scale_in().expect("scale in");
    assert_eq!(rt.active(), 1);

    let report = running.join();

    // Zero tuple loss across both membership changes.
    assert_eq!(report.tuples_in_matching("pca-"), N);
    assert_eq!(report.op("source").unwrap().tuples_out, N);

    // The controller reconciled both membership changes and the counters
    // surfaced in the run report.
    assert_eq!(report.faults()[Fault::ScaleOuts], 1);
    assert_eq!(report.faults()[Fault::ScaleIns], 1);
    assert_eq!(report.total_restarts(), 0);
    assert_eq!(report.total_pe_restarts(), 0);

    // The retiree was folded into the survivor and reset: its state is
    // uninitialized, the survivor holds the fleet's combined history.
    assert!(h.engine_states[1].lock().full_eigensystem().is_none());

    let merged = rt.merged_active_eigensystem().expect("merged estimate");
    let reference = fixed_fleet_reference(11, N);
    assert_near_truth_and_reference(&merged, &reference, D);
}

#[test]
fn joining_engine_shares_only_after_the_independence_gate_repasses() {
    // memory 200 → sync gate ⌈1.5·200⌉ = 300.
    let gate_cfg = || {
        PcaConfig::new(D, 2)
            .with_memory(200)
            .with_init_size(20)
            .with_extra(0)
    };
    let feed = |op: &mut StreamingPcaOp, n: usize, seed: u64| {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        with_ctx(3, |ctx| {
            for seq in 0..n {
                op.process(DataTuple::new(seq as u64, w.sample(&mut rng)), ctx);
            }
        });
    };
    let cmd = || {
        ControlTuple::new(
            KIND_SYNC_COMMAND,
            99,
            Arc::new(SyncCommand {
                share_ports: vec![0],
            }),
        )
    };

    // Donor: a warmed-up engine whose eigensystem seeds the joiner.
    let mut donor = StreamingPcaOp::new(0, gate_cfg(), 1);
    feed(&mut donor, 800, 7);
    let eig = donor
        .state_handle()
        .lock()
        .full_eigensystem()
        .expect("donor initialized")
        .clone();

    // Joiner: fresh operator bootstrapped the way `ElasticRuntime` does
    // it — the donor history installed into its state handle. History
    // alone must not open the gate: `obs_since_sync` starts at zero.
    let mut joiner = StreamingPcaOp::new(1, gate_cfg(), 1);
    joiner
        .state_handle()
        .lock()
        .install_eigensystem(eig)
        .unwrap();
    let sink = with_ctx(3, |ctx| joiner.on_control(cmd(), ctx));
    assert!(
        sink.ports[0].is_empty(),
        "freshly joined engine must not share before re-earning independence"
    );

    // 300 fresh observations: exactly at the gate — still shut (strict >).
    feed(&mut joiner, 300, 8);
    let sink = with_ctx(3, |ctx| joiner.on_control(cmd(), ctx));
    assert!(sink.ports[0].is_empty(), "obs == gate must stay gated");

    // One more fresh observation re-passes 1.5·N: the share flows.
    feed(&mut joiner, 1, 9);
    let sink = with_ctx(3, |ctx| joiner.on_control(cmd(), ctx));
    assert_eq!(
        sink.ports[0].len(),
        1,
        "gate re-passed on fresh observations → joiner rejoins the exchange"
    );
}

#[test]
fn kill_pe_during_scale_out_recovers_and_converges() {
    const N: u64 = 40_000;
    let dir = tmp_dir("killpe");
    let mut cfg = elastic_cfg(1, 3);
    cfg.recovery_dir = Some(dir.clone());
    cfg.recovery_every = 500;
    // Engine 0's whole PE dies at its 6000th tuple — right after the
    // scripted scale-out below, so the join (bootstrap + ring admission)
    // is in flight while the donor PE is torn down and rehydrated.
    cfg.faults = Some(normalize_fault_targets(
        FaultPlan::parse("kill-pe@engine0:6000").unwrap(),
    ));
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(21, N, Some(30_000.0)));
    let rt = ElasticRuntime::new(&h).unwrap();
    let running = Engine::start(g);

    assert!(
        wait_until(Duration::from_secs(30), || h.engine_states[0]
            .lock()
            .n_obs()
            > 5_000),
        "engine 0 never warmed up"
    );
    rt.scale_out().expect("scale out");
    assert_eq!(rt.active(), 2);

    let report = running.join();

    // The PE teardown lost nothing, the restart and the rescale are both
    // counted, and the admitted engine kept the fleet converging.
    assert_eq!(report.tuples_in_matching("pca-"), N);
    assert!(
        report.total_pe_restarts() >= 1,
        "PE restart must be counted"
    );
    assert_eq!(report.faults()[Fault::ScaleOuts], 1);

    let merged = rt.merged_active_eigensystem().expect("merged estimate");
    let reference = fixed_fleet_reference(21, N);
    assert_near_truth_and_reference(&merged, &reference, D);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn fsync_faults_during_retire_merge_degrade_gracefully() {
    const N: u64 = 40_000;
    let dir = tmp_dir("fsync");
    let mut cfg = elastic_cfg(2, 3);
    cfg.recovery_dir = Some(dir.clone());
    cfg.recovery_every = 400;
    // Every fsync fails for the whole run — including across the retiring
    // engine's final drain and merge. Persistence must degrade (counted),
    // never kill an engine or corrupt the in-memory merge.
    cfg.faults = Some(normalize_fault_targets(
        FaultPlan::parse("io-fsync-err").unwrap(),
    ));
    let (g, h) = ParallelPcaApp::build(&cfg, seeded_source(31, N, Some(30_000.0)));
    let rt = ElasticRuntime::new(&h).unwrap();
    let running = Engine::start(g);

    assert!(
        wait_until(Duration::from_secs(30), || {
            h.engine_states[0].lock().n_obs() + h.engine_states[1].lock().n_obs() > 8_000
        }),
        "fleet never warmed up"
    );
    rt.scale_out().expect("scale out");
    let at_join = h.engine_states[2].lock().n_obs();
    assert!(
        wait_until(Duration::from_secs(30), || h.engine_states[2]
            .lock()
            .n_obs()
            > at_join + 2_000),
        "joiner never took live traffic"
    );
    rt.scale_in().expect("scale in");
    assert_eq!(rt.active(), 2);

    let report = running.join();

    assert_eq!(report.tuples_in_matching("pca-"), N);
    assert_eq!(report.faults()[Fault::ScaleOuts], 1);
    assert_eq!(report.faults()[Fault::ScaleIns], 1);
    assert!(
        report.faults()[Fault::IoFaults] + report.total_checkpoint_skips() >= 1,
        "failed fsyncs must be visible in the fault counters"
    );
    assert_eq!(
        report.total_restarts() + report.total_pe_restarts(),
        0,
        "storage degradation must not kill engines"
    );

    let merged = rt.merged_active_eigensystem().expect("merged estimate");
    let reference = fixed_fleet_reference(31, N);
    assert_near_truth_and_reference(&merged, &reference, D);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn load_swing_scales_out_and_back_in_with_zero_loss() {
    // Heavy per-tuple update (d=96, 18 tracked components) makes the
    // engines the bottleneck by a wide margin over the cheap generator,
    // on any machine: the unthrottled phase builds real backlog. The
    // trickle phase paces the source far below one engine's capacity, so
    // the supervisor must shrink the fleet again before the stream ends.
    const HEAVY: u64 = 20_000;
    const TOTAL: u64 = 28_000;
    const DIM: usize = 64;
    let pcfg = PcaConfig::new(DIM, 2)
        .with_memory(400)
        .with_init_size(30)
        .with_extra(12);
    let mut cfg = AppConfig::new(1, pcfg);
    cfg.sync = SyncStrategy::Ring;
    cfg.sync_period = Duration::from_millis(5);
    cfg.heartbeat_every = 64;
    cfg.liveness_timeout = Duration::from_millis(500);
    cfg.channel_capacity = 8192;
    cfg.max_engines = Some(3);

    let w = PlantedSubspace::new(DIM, 2, 0.05);
    let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(5)));
    let source = GeneratorSource::new(move |seq| {
        if seq >= HEAVY {
            std::thread::sleep(Duration::from_micros(200));
        }
        Some((w.sample(&mut *rng.lock()), None))
    })
    .with_max_tuples(TOTAL);

    let (g, h) = ParallelPcaApp::build(&cfg, Box::new(source));
    let rt = ElasticRuntime::new(&h).unwrap();
    let mut sup = ElasticSupervisor::new(rt, Duration::from_millis(30));
    let running = Engine::start(g);
    while !running.is_finished() {
        sup.tick(&running);
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = running.join();

    let (outs, ins) = sup.event_counts();
    assert!(
        outs >= 1,
        "the saturated phase must trigger a scale-out (events: {:?})",
        sup.events
    );
    assert!(
        ins >= 1,
        "the trickle phase must let the fleet shrink (events: {:?})",
        sup.events
    );
    assert!(report.faults()[Fault::ScaleOuts] >= 1);
    assert!(report.faults()[Fault::ScaleIns] >= 1);

    // Zero tuple loss across every rescale the supervisor performed.
    assert_eq!(report.op("source").unwrap().tuples_out, TOTAL);
    assert_eq!(report.tuples_in_matching("pca-"), TOTAL);

    let merged = sup
        .runtime()
        .merged_active_eigensystem()
        .expect("merged estimate");
    let truth = PlantedSubspace::new(DIM, 2, 0.05);
    let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
    assert!(dist < 0.2, "merged estimate vs planted truth: {dist}");
}
