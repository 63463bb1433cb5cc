//! Elastic autoscaling: live scale-out/scale-in with state migration.
//!
//! The paper motivates cloud elasticity — "dynamic scalable Cloud cluster
//! would be able to meet the demand of large data streams realtime
//! processing by adding additional nodes to the processing cluster when
//! needed" (§I) — and `spca-cluster` simulates the policy loop against
//! the DES. This module is the *live* half: the same [`ElasticPolicy`]
//! thresholds drive a real fleet of [`crate::pca_operator::StreamingPcaOp`]
//! engines, resizing it mid-stream without losing tuples or state.
//!
//! Mechanically, elasticity rides on three pieces the rest of the crate
//! already provides:
//!
//! * **Pre-provisioned standbys + prefix membership.** The dataflow
//!   topology is static (the builder wires `max_engines` engines up
//!   front), but which prefix of the fleet is *live* is a single shared
//!   [`spca_streams::ActiveSet`]. The split confines traffic to the
//!   active prefix, the sync controller reconciles its ring against it,
//!   and this module is the only writer.
//! * **Checkpoint-format bootstrap.** A joining engine is seeded from
//!   the merged eigensystem of the active fleet, round-tripped through
//!   the persistence byte format ([`persist::encode_snapshot`] /
//!   [`persist::decode_snapshot`]) — the exact bytes a checkpoint or
//!   recovery snapshot would carry, so the join path and the recovery
//!   path can never drift apart.
//! * **The `1.5·N` independence gate.** Installing bootstrap state does
//!   not touch the joining operator's `obs_since_sync` clock, so a
//!   freshly admitted engine is held out of *sharing* until it has
//!   accumulated `1.5·N` genuinely new observations — it re-passes the
//!   gate like any engine that just merged.
//!
//! Scale-in is the reverse: membership shrinks first (the split stops
//! routing to the retiring engine immediately), the retiring engine's
//! observation count is drain-polled until stable, and its final state is
//! folded into survivor 0 — after which the retiree is reset fresh so its
//! end-of-stream snapshot reports nothing and a later re-admission starts
//! clean. Observation *counts* in merged estimates double-count shared
//! history (inherent to merge-based sharing, see `ResultsHub`); tuple
//! conservation is exact and is what the regression tests pin.

use crate::persist;
use parking_lot::Mutex;
use spca_core::{merge, EigenSystem, RobustPca};
use spca_streams::metrics::{OpSnapshot, RateProbe};
use spca_streams::{ActiveSet, RunningEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use spca_cluster::elastic::ElasticPolicy;

/// Why a rescale request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleError {
    /// Already at the provisioned ceiling.
    AtCapacity,
    /// Already at one engine (the floor).
    AtFloor,
    /// State migration failed (checkpoint codec or merge rejection).
    Migration(String),
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScaleError::AtCapacity => write!(f, "fleet already at provisioned ceiling"),
            ScaleError::AtFloor => write!(f, "fleet already at one engine"),
            ScaleError::Migration(e) => write!(f, "state migration failed: {e}"),
        }
    }
}

/// One completed rescale, as recorded by the supervisor.
#[derive(Debug, Clone)]
pub struct ScaleEvent {
    /// Time since the supervisor started.
    pub at: Duration,
    /// Engines added (positive) or removed (negative).
    pub action: i64,
    /// Active engines after the rescale.
    pub active_after: usize,
    /// Wall-clock cost of the migration itself (bootstrap or drain+merge).
    pub latency: Duration,
}

/// The mechanics of a live rescale: flips membership and migrates state.
///
/// Obtain one from [`ElasticRuntime::new`] over the handles of an app
/// built with [`crate::AppConfig::max_engines`] set. The runtime is the
/// single writer of the shared [`ActiveSet`]; the split and the sync
/// controller are its readers.
pub struct ElasticRuntime {
    active: Arc<ActiveSet>,
    states: Vec<Arc<Mutex<RobustPca>>>,
    /// Drain poll cadence during scale-in.
    drain_poll: Duration,
    /// Consecutive unchanged polls before the retiree counts as drained.
    drain_stable: usize,
    /// Upper bound on drain polls (a stalled engine must not wedge the
    /// autoscaler forever).
    max_drain_polls: usize,
}

impl ElasticRuntime {
    /// Builds the runtime from an elastic app's handles; `None` when the
    /// app was not built with `max_engines`.
    pub fn new(handles: &crate::AppHandles) -> Option<Self> {
        let active = handles.active.as_ref()?;
        Some(ElasticRuntime::from_parts(
            Arc::clone(active),
            handles.engine_states.clone(),
        ))
    }

    /// Builds the runtime from the raw membership handle and state
    /// handles (one per provisioned engine, in engine order).
    pub fn from_parts(active: Arc<ActiveSet>, states: Vec<Arc<Mutex<RobustPca>>>) -> Self {
        assert_eq!(
            states.len(),
            active.max(),
            "need one state handle per provisioned engine"
        );
        ElasticRuntime {
            active,
            states,
            drain_poll: Duration::from_millis(2),
            drain_stable: 5,
            max_drain_polls: 500,
        }
    }

    /// Currently active engines.
    pub fn active(&self) -> usize {
        self.active.active()
    }

    /// Provisioned ceiling.
    pub fn max(&self) -> usize {
        self.active.max()
    }

    /// Merged eigensystem over the initialized engines of the active
    /// prefix — the live global estimate, and the bootstrap seed for a
    /// joining engine. `None` while every engine is still warming up.
    pub fn merged_active_eigensystem(&self) -> Option<EigenSystem> {
        let n = self.active.active();
        let mut acc: Option<EigenSystem> = None;
        for st in &self.states[..n] {
            let Some(eig) = st.lock().full_eigensystem().cloned() else {
                continue;
            };
            acc = Some(match acc {
                None => eig,
                Some(a) => merge(&a, &eig).ok()?,
            });
        }
        acc
    }

    /// Admits the next standby engine: bootstraps it from the active
    /// fleet's merged eigensystem via the checkpoint byte format, then
    /// grows the membership prefix. Returns the new active count.
    ///
    /// The admitted engine starts *receiving* traffic immediately but
    /// will not *share* state until its `1.5·N` independence gate
    /// re-passes on fresh observations.
    pub fn scale_out(&self) -> Result<usize, ScaleError> {
        let cur = self.active.active();
        if cur >= self.active.max() {
            return Err(ScaleError::AtCapacity);
        }
        let joining = cur; // membership is a prefix: next index joins
        if let Some(merged) = self.merged_active_eigensystem() {
            // Round-trip through the persistence format: the join path
            // exercises the exact bytes recovery would replay.
            let bytes = persist::encode_snapshot(&merged);
            let eig = persist::decode_snapshot(&bytes)
                .map_err(|e| ScaleError::Migration(e.to_string()))?;
            self.states[joining]
                .lock()
                .install_eigensystem(eig)
                .map_err(|e| ScaleError::Migration(e.to_string()))?;
        }
        // Cold fleet (nobody initialized yet): admit with a fresh state —
        // the newcomer warms up exactly like a seed engine.
        Ok(self.active.set_active(cur + 1))
    }

    /// Retires the highest active engine: shrinks membership first (the
    /// split stops routing to it at once), drains its in-flight queue,
    /// folds its final state into engine 0, and resets it fresh so a
    /// later re-admission (or the end-of-stream snapshot) starts clean.
    /// Returns the new active count.
    pub fn scale_in(&self) -> Result<usize, ScaleError> {
        let cur = self.active.active();
        if cur <= 1 {
            return Err(ScaleError::AtFloor);
        }
        let retiring = cur - 1;
        let now = self.active.set_active(cur - 1);

        // Drain: the split no longer routes here, so once the observation
        // count stops moving the queued tail has been absorbed.
        let mut last = self.states[retiring].lock().n_obs();
        let mut stable = 0;
        for _ in 0..self.max_drain_polls {
            std::thread::sleep(self.drain_poll);
            let n_obs = self.states[retiring].lock().n_obs();
            if n_obs == last {
                stable += 1;
                if stable >= self.drain_stable {
                    break;
                }
            } else {
                stable = 0;
                last = n_obs;
            }
        }

        // Take the retiree's final estimate and reset it under one lock:
        // nothing can slip between the read and the reset.
        let retired = {
            let mut st = self.states[retiring].lock();
            let eig = st.full_eigensystem().cloned();
            let cfg = st.config().clone();
            *st = RobustPca::new(cfg);
            eig
        };
        if let Some(eig) = retired {
            let mut survivor = self.states[0].lock();
            let merged = match survivor.full_eigensystem() {
                Some(own) => merge(own, &eig).map_err(|e| ScaleError::Migration(e.to_string()))?,
                // Survivor still warming up: adopt the retiree's estimate.
                None => eig,
            };
            survivor
                .install_eigensystem(merged)
                .map_err(|e| ScaleError::Migration(e.to_string()))?;
        }
        Ok(now)
    }
}

/// Per-epoch measurements the supervisor bases its decision on.
struct EpochWindow {
    probe: RateProbe,
    backlog: u64,
    started: Instant,
}

/// The live autoscaler: probes the running dataflow's throughput and
/// queue growth every epoch, feeds the measurements into the *same*
/// [`ElasticPolicy::decide`] the DES simulation uses, and executes the
/// resulting rescales through an [`ElasticRuntime`].
///
/// Offered load is estimated as `achieved + queue growth`: when the
/// fleet keeps up, queues are flat and offered == achieved; when it
/// falls behind, the backlog between the source and the engines grows
/// and the difference is exactly the unmet demand. Capacity at a pool
/// size is extrapolated from the peak per-engine throughput observed so
/// far (the engines are homogeneous replicas).
pub struct ElasticSupervisor {
    policy: ElasticPolicy,
    runtime: ElasticRuntime,
    epoch: Duration,
    started: Instant,
    window: Option<EpochWindow>,
    since_action: usize,
    last_action: i64,
    peak_per_engine: f64,
    /// Every rescale executed so far, in order.
    pub events: Vec<ScaleEvent>,
}

impl ElasticSupervisor {
    /// A supervisor over `runtime` deciding once per `epoch`, with the
    /// default policy (the same [`ElasticPolicy::default`] that
    /// calibrates the DES simulation) bounded to the runtime's fleet.
    pub fn new(runtime: ElasticRuntime, epoch: Duration) -> Self {
        let policy = ElasticPolicy {
            min_engines: 1,
            max_engines: runtime.max(),
            ..ElasticPolicy::default()
        };
        ElasticSupervisor {
            policy,
            runtime,
            epoch,
            started: Instant::now(),
            window: None,
            since_action: 0,
            last_action: 0,
            peak_per_engine: 0.0,
            events: Vec::new(),
        }
    }

    /// Overrides the scaling policy (bounds are clamped to the fleet).
    pub fn with_policy(mut self, mut policy: ElasticPolicy) -> Self {
        policy.max_engines = policy.max_engines.min(self.runtime.max());
        policy.min_engines = policy.min_engines.max(1);
        self.policy = policy;
        self
    }

    /// The underlying runtime (e.g. for a final merged estimate).
    pub fn runtime(&self) -> &ElasticRuntime {
        &self.runtime
    }

    /// Tuples emitted by the source but not yet absorbed by an engine.
    fn backlog(snapshots: &[(String, OpSnapshot)]) -> u64 {
        let mut produced = 0u64;
        let mut absorbed = 0u64;
        for (name, s) in snapshots {
            if name == "source" {
                produced = s.tuples_out;
            } else if name.starts_with("pca-") {
                absorbed += s.tuples_in;
            }
        }
        produced.saturating_sub(absorbed)
    }

    /// One supervisor step: cheap until a full epoch has elapsed, then
    /// measures, decides, and executes at most one rescale action.
    /// Returns the event if a rescale happened. Call this from the
    /// application's polling loop while the engine runs.
    pub fn tick(&mut self, running: &RunningEngine) -> Option<ScaleEvent> {
        let named = running.op_snapshots();
        let Some(window) = &self.window else {
            self.window = Some(EpochWindow {
                probe: RateProbe::start(named.iter().map(|(_, s)| *s).collect()),
                backlog: Self::backlog(&named),
                started: Instant::now(),
            });
            return None;
        };
        if window.started.elapsed() < self.epoch {
            return None;
        }

        let snaps: Vec<OpSnapshot> = named.iter().map(|(_, s)| *s).collect();
        let achieved = window
            .probe
            .total_rate_in(&snaps, |i| named[i].0.starts_with("pca-"));
        let dt = window.started.elapsed().as_secs_f64().max(1e-9);
        let backlog_now = Self::backlog(&named);
        let growth = (backlog_now as f64 - window.backlog as f64) / dt;
        let offered = achieved + growth.max(0.0);

        // Re-arm the measurement window before deciding, so a slow
        // migration does not stretch the next epoch's denominator.
        self.window = Some(EpochWindow {
            probe: RateProbe::start(snaps),
            backlog: backlog_now,
            started: Instant::now(),
        });

        let active = self.runtime.active();
        if achieved <= f64::EPSILON {
            // Warm-up or idle stream: no throughput signal to act on.
            self.since_action = self.since_action.saturating_add(1);
            return None;
        }
        self.peak_per_engine = self.peak_per_engine.max(achieved / active as f64);
        let per_engine = self.peak_per_engine;
        let action = self.policy.decide(
            offered,
            active,
            |n| per_engine * n as f64,
            self.since_action,
            self.last_action,
        );
        if action == 0 {
            self.since_action = self.since_action.saturating_add(1);
            return None;
        }

        let migration_start = Instant::now();
        let mut applied = 0i64;
        for _ in 0..action.unsigned_abs() {
            let step = if action > 0 {
                self.runtime.scale_out()
            } else {
                self.runtime.scale_in()
            };
            match step {
                Ok(_) => applied += action.signum(),
                Err(ScaleError::AtCapacity) | Err(ScaleError::AtFloor) => break,
                Err(e) => {
                    eprintln!("autoscaler: rescale aborted: {e}");
                    break;
                }
            }
        }
        self.since_action = 0;
        self.last_action = action;
        if applied == 0 {
            return None;
        }
        let event = ScaleEvent {
            at: self.started.elapsed(),
            action: applied,
            active_after: self.runtime.active(),
            latency: migration_start.elapsed(),
        };
        self.events.push(event.clone());
        Some(event)
    }

    /// Scale-outs and scale-ins executed so far (events, not engines).
    pub fn event_counts(&self) -> (usize, usize) {
        let outs = self.events.iter().filter(|e| e.action > 0).count();
        let ins = self.events.iter().filter(|e| e.action < 0).count();
        (outs, ins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spca_core::PcaConfig;
    use spca_spectra::PlantedSubspace;

    const D: usize = 12;

    fn cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(200)
            .with_init_size(20)
            .with_extra(0)
    }

    fn warmed_state(seed: u64, n: u64) -> Arc<Mutex<RobustPca>> {
        let mut pca = RobustPca::new(cfg());
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            pca.update(&w.sample(&mut rng)).unwrap();
        }
        Arc::new(Mutex::new(pca))
    }

    fn fresh_state() -> Arc<Mutex<RobustPca>> {
        Arc::new(Mutex::new(RobustPca::new(cfg())))
    }

    #[test]
    fn scale_out_bootstraps_the_standby_from_the_merged_estimate() {
        let active = ActiveSet::new(2, 3);
        let states = vec![warmed_state(1, 400), warmed_state(2, 400), fresh_state()];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        assert!(states[2].lock().full_eigensystem().is_none());

        assert_eq!(rt.scale_out().unwrap(), 3);
        assert_eq!(active.active(), 3);
        let boot = states[2].lock().full_eigensystem().cloned().unwrap();
        boot.check_invariants().unwrap();
        // Bootstrapped from the merge: carries both donors' history.
        assert_eq!(boot.n_obs, 800);
        let merged = rt.merged_active_eigensystem().unwrap();
        merged.check_invariants().unwrap();

        // Ceiling reached.
        assert_eq!(rt.scale_out(), Err(ScaleError::AtCapacity));
    }

    #[test]
    fn scale_out_on_a_cold_fleet_admits_a_fresh_engine() {
        let active = ActiveSet::new(1, 2);
        let states = vec![fresh_state(), fresh_state()];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        assert_eq!(rt.scale_out().unwrap(), 2);
        assert!(states[1].lock().full_eigensystem().is_none());
    }

    #[test]
    fn scale_in_folds_the_retiree_into_the_survivor_and_resets_it() {
        let active = ActiveSet::new(2, 2);
        let states = vec![warmed_state(3, 300), warmed_state(4, 500)];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        let before = states[0].lock().full_eigensystem().unwrap().n_obs;

        assert_eq!(rt.scale_in().unwrap(), 1);
        assert_eq!(active.active(), 1);
        let survivor = states[0].lock().full_eigensystem().cloned().unwrap();
        survivor.check_invariants().unwrap();
        assert_eq!(
            survivor.n_obs,
            before + 500,
            "merge folds the retiree's observations into the survivor"
        );
        // The retiree is reset: its end-of-stream snapshot reports nothing
        // and a re-admission starts from the bootstrap, not stale state.
        assert!(states[1].lock().full_eigensystem().is_none());
        assert_eq!(states[1].lock().n_obs(), 0);

        // Floor reached.
        assert_eq!(rt.scale_in(), Err(ScaleError::AtFloor));
    }

    #[test]
    fn rescale_round_trip_preserves_the_subspace() {
        // out → in must return (approximately) the state it started from.
        let active = ActiveSet::new(1, 2);
        let states = vec![warmed_state(5, 800), fresh_state()];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        let before = states[0].lock().full_eigensystem().cloned().unwrap();
        rt.scale_out().unwrap();
        rt.scale_in().unwrap();
        let after = states[0].lock().full_eigensystem().cloned().unwrap();
        let d = spca_core::metrics::subspace_distance(&before.basis, &after.basis).unwrap();
        assert!(d < 1e-6, "rescale round trip moved the basis by {d}");
    }

    #[test]
    fn drain_waits_for_a_still_processing_retiree() {
        let active = ActiveSet::new(2, 2);
        let states = vec![warmed_state(6, 300), warmed_state(7, 300)];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        // A writer thread keeps feeding the retiring engine for a little
        // while after the membership flip, simulating the queued tail.
        let retiree = Arc::clone(&states[1]);
        let writer = std::thread::spawn(move || {
            let w = PlantedSubspace::new(D, 2, 0.05);
            let mut rng = StdRng::seed_from_u64(8);
            for _ in 0..50 {
                retiree.lock().update(&w.sample(&mut rng)).unwrap();
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let n = rt.scale_in().unwrap();
        writer.join().unwrap();
        assert_eq!(n, 1);
        let survivor = states[0].lock().full_eigensystem().cloned().unwrap();
        // 300 own + 300 retiree + the tail the drain absorbed. A sliver of
        // the 50-tuple tail may race past the stability window, but the
        // drain must have captured most of it.
        assert!(
            survivor.n_obs >= 600,
            "survivor lost the retiree's history: {}",
            survivor.n_obs
        );
    }

    #[test]
    fn supervisor_policy_bounds_are_clamped_to_the_fleet() {
        let active = ActiveSet::new(1, 3);
        let states = vec![fresh_state(), fresh_state(), fresh_state()];
        let rt = ElasticRuntime::from_parts(active, states);
        let sup =
            ElasticSupervisor::new(rt, Duration::from_millis(10)).with_policy(ElasticPolicy {
                max_engines: 100,
                min_engines: 0,
                ..ElasticPolicy::default()
            });
        assert_eq!(sup.policy.max_engines, 3);
        assert_eq!(sup.policy.min_engines, 1);
    }

    #[test]
    fn backlog_is_source_minus_engines() {
        let snap = |tin: u64, tout: u64| OpSnapshot {
            tuples_in: tin,
            tuples_out: tout,
            ..OpSnapshot::default()
        };
        let named = vec![
            ("source".to_string(), snap(0, 1000)),
            ("split".to_string(), snap(980, 960)),
            ("pca-0".to_string(), snap(500, 0)),
            ("pca-1".to_string(), snap(430, 0)),
            ("monitor".to_string(), snap(7, 0)),
        ];
        assert_eq!(ElasticSupervisor::backlog(&named), 70);
    }

    #[test]
    fn cold_fleet_random_updates_do_not_break_rescale() {
        // Fuzz the admit/retire sequence against invariant checks.
        let active = ActiveSet::new(1, 3);
        let states = vec![warmed_state(9, 100), fresh_state(), fresh_state()];
        let rt = ElasticRuntime::from_parts(Arc::clone(&active), states.clone());
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..12 {
            if rng.gen_bool(0.5) {
                let _ = rt.scale_out();
            } else {
                let _ = rt.scale_in();
            }
            if let Some(eig) = rt.merged_active_eigensystem() {
                eig.check_invariants().unwrap();
            }
            let n = active.active();
            assert!((1..=3).contains(&n));
        }
    }
}
