//! Application builder: assembles the paper's Fig. 2 analysis graph.
//!
//! `source → split → n × StreamingPca`, with the synchronization
//! controller wired to every engine's control port (optionally through
//! `Throttle` operators, §III-B), peer-state edges following the chosen
//! [`SyncStrategy`] topology, monitor ports collected into a
//! [`ResultsHub`], and an optional per-tuple outcome feed.
//!
//! Placement mirrors §III-D's two configurations: `fuse = true` puts every
//! operator in one processing element (the "single" rows of Fig. 6 —
//! in-memory tuple hand-off), while `fuse = false` gives each engine its
//! own PE with `Network`-kind links (the "distributed" rows; the modeled
//! per-tuple delay is configurable for laptop-scale demonstrations).

use crate::messages::{PeerState, KIND_SNAPSHOT};
use crate::pca_operator::StreamingPcaOp;
use crate::results::ResultsHub;
use crate::sync::{SyncController, SyncStrategy};
use parking_lot::Mutex;
use spca_core::{PcaConfig, RobustPca};
use spca_streams::ops::{CallbackSink, CollectSink, Split, SplitStrategy, Throttle};
use spca_streams::{
    ActiveSet, DataTuple, FaultPlan, GraphBuilder, LinkKind, Operator, PortKind, RestartPolicy,
};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of the parallel streaming-PCA application.
#[derive(Clone)]
pub struct AppConfig {
    /// Number of parallel PCA engines.
    pub n_engines: usize,
    /// PCA algorithm configuration (shared by every engine).
    pub pca: PcaConfig,
    /// Load-balancing strategy of the split.
    pub split: SplitStrategy,
    /// Synchronization topology.
    pub sync: SyncStrategy,
    /// Pacing of synchronization commands (paper: 0.5 s).
    pub sync_period: Duration,
    /// Wire explicit `Throttle` operators between controller and engines
    /// (the paper's arrangement); otherwise the controller self-paces.
    pub use_throttle: bool,
    /// Emit an eigensystem snapshot every `n` processed tuples per engine
    /// (0 = final snapshot only).
    pub snapshot_every: u64,
    /// Collect the per-tuple outcome feed (`[seq, r², t, w, outlier]`).
    pub emit_outcomes: bool,
    /// Collect flagged observations verbatim into a quarantine store
    /// ("flag outliers for further processing", §II-C).
    pub quarantine: bool,
    /// Fuse everything into one PE (single-node configuration).
    pub fuse: bool,
    /// Modeled per-message network overhead on cross-PE data links, in µs
    /// (charged once per transport frame; see [`LinkKind::Network`]).
    pub network_delay_us: u64,
    /// Cross-PE channel capacity.
    pub channel_capacity: usize,
    /// Cross-PE transport batch size (tuples per frame); `1` disables
    /// batching. See [`GraphBuilder::with_batch_size`].
    pub batch_size: usize,
    /// Persist every engine snapshot under this directory (§III-C's
    /// periodic saves); `None` disables persistence.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Warm-start every engine from this eigensystem (e.g. read back with
    /// [`crate::persist::read_snapshot`]); engines skip warm-up.
    pub warm_start: Option<spca_core::EigenSystem>,
    /// Data-driven sync gate: engines share state only when their basis
    /// has drifted at least this far (subspace distance) from the last
    /// peer state they received. `None` = share whenever the `1.5·N`
    /// observation gate passes.
    pub divergence_gate: Option<f64>,
    /// Deterministic fault plan threaded into the dataflow engine (see
    /// [`FaultPlan::parse`]); targets must use operator names — run user
    /// specs through [`normalize_fault_targets`] first so `engine1` means
    /// `pca-1`.
    pub faults: Option<FaultPlan>,
    /// Supervised-restart policy for panicking operators.
    pub restart: RestartPolicy,
    /// When set, every engine synchronously persists its eigensystem under
    /// this directory (see [`StreamingPcaOp::with_recovery`]) and
    /// rehydrates from it after a supervised restart. Whole-PE restarts
    /// additionally keep per-PE snapshot manifests under `<dir>/pe`, from
    /// which *every* stateful operator in a killed PE is rehydrated.
    pub recovery_dir: Option<std::path::PathBuf>,
    /// Recovery-snapshot cadence in processed tuples.
    pub recovery_every: u64,
    /// Failure-aware synchronization: engines heartbeat to the controller,
    /// the controller skips dead engines (re-closing a ring around them)
    /// and re-admits restarted ones, and peer-state wiring becomes a full
    /// mesh so any surviving pair can still exchange state.
    pub failure_aware_sync: bool,
    /// An engine silent for this long counts as dead (failure-aware mode).
    pub liveness_timeout: Duration,
    /// Engines heartbeat every `n` processed tuples (failure-aware mode).
    pub heartbeat_every: u64,
    /// Serving layer: when set, every engine publishes epoch-numbered
    /// eigensystem snapshots into this store (see
    /// [`StreamingPcaOp::with_epoch_store`]) so HTTP query handlers can
    /// read the live estimate locklessly.
    pub epoch_store: Option<Arc<crate::epoch::EpochStore>>,
    /// Snapshot publication cadence in processed tuples per engine
    /// (0 = only on initialization, merges, and finish).
    pub publish_every: u64,
    /// Elastic autoscaling ceiling: when set, the builder provisions this
    /// many engines up front but only the first `n_engines` start active —
    /// the rest idle as standbys until an [`crate::autoscale`] supervisor
    /// admits them through the shared [`ActiveSet`]. Elastic mode implies
    /// failure-aware synchronization (full-mesh peer wiring, heartbeats,
    /// liveness-driven port maps), because the membership-independent mesh
    /// port map is what lets an admitted engine join without rewiring.
    pub max_engines: Option<usize>,
}

impl AppConfig {
    /// Defaults mirroring the paper's performance setup: random split,
    /// ring sync at 0.5 s, distributed placement.
    pub fn new(n_engines: usize, pca: PcaConfig) -> Self {
        AppConfig {
            n_engines,
            pca,
            split: SplitStrategy::Random,
            sync: SyncStrategy::Ring,
            sync_period: Duration::from_millis(500),
            use_throttle: false,
            snapshot_every: 0,
            emit_outcomes: false,
            quarantine: false,
            fuse: false,
            network_delay_us: 0,
            channel_capacity: 1024,
            batch_size: spca_streams::DEFAULT_BATCH_SIZE,
            snapshot_dir: None,
            warm_start: None,
            divergence_gate: None,
            faults: None,
            restart: RestartPolicy::default(),
            recovery_dir: None,
            recovery_every: 500,
            failure_aware_sync: false,
            liveness_timeout: Duration::from_millis(100),
            heartbeat_every: 64,
            epoch_store: None,
            publish_every: 64,
            max_engines: None,
        }
    }
}

/// Rewrites user-facing fault targets (`engine<k>`) to the graph's
/// operator names (`pca-<k>`), leaving everything else — including link
/// endpoints like `split` — untouched.
pub fn normalize_fault_targets(plan: FaultPlan) -> FaultPlan {
    plan.rename_targets(|name| {
        if let Some(k) = name.strip_prefix("engine") {
            if k.parse::<u32>().is_ok() {
                return format!("pca-{k}");
            }
        }
        name.to_string()
    })
}

/// Handles into a built application.
pub struct AppHandles {
    /// Snapshot hub (latest per-engine eigensystems, merged estimate).
    pub hub: ResultsHub,
    /// Outcome feed storage, when `emit_outcomes` was set.
    pub outcomes: Option<Arc<Mutex<Vec<DataTuple>>>>,
    /// Quarantined (flagged) observations, when `quarantine` was set.
    pub quarantined: Option<Arc<Mutex<Vec<DataTuple>>>>,
    /// Live handles to each engine's PCA state (one per *provisioned*
    /// engine in elastic mode, standbys included).
    pub engine_states: Vec<Arc<Mutex<RobustPca>>>,
    /// Shared membership handle in elastic mode: the autoscaler flips it,
    /// the split and sync controller obey it.
    pub active: Option<Arc<ActiveSet>>,
}

/// Builder for the complete application graph.
pub struct ParallelPcaApp;

impl ParallelPcaApp {
    /// Assembles the graph around the given data source. Returns the
    /// builder (run it with [`spca_streams::Engine`]) and the handles.
    pub fn build(cfg: &AppConfig, source: Box<dyn Operator>) -> (GraphBuilder, AppHandles) {
        Self::build_with_gate(cfg, source, None)
    }

    /// Like [`ParallelPcaApp::build`], with an explicit override of the
    /// engines' synchronization gate (observations required between state
    /// shares) — used by the gate ablation bench.
    pub fn build_with_gate(
        cfg: &AppConfig,
        source: Box<dyn Operator>,
        sync_gate: Option<u64>,
    ) -> (GraphBuilder, AppHandles) {
        assert!(cfg.n_engines >= 1, "need at least one engine");
        // Elastic mode provisions the ceiling up front; membership (which
        // prefix of the fleet is live) is the only thing that changes at
        // runtime, so the topology stays static while the fleet does not.
        let n = cfg
            .max_engines
            .map(|m| m.max(cfg.n_engines))
            .unwrap_or(cfg.n_engines);
        let elastic = cfg.max_engines.is_some() && n > 1;
        let active = elastic.then(|| ActiveSet::new(cfg.n_engines, n));
        let failure_aware =
            (cfg.failure_aware_sync || elastic) && n > 1 && !matches!(cfg.sync, SyncStrategy::None);
        let mut g = GraphBuilder::new()
            .with_channel_capacity(cfg.channel_capacity)
            .with_batch_size(cfg.batch_size)
            .with_restart_policy(cfg.restart);
        if let Some(ref plan) = cfg.faults {
            g = g.with_fault_plan(plan.clone());
        }
        if let Some(ref dir) = cfg.recovery_dir {
            // Whole-PE restarts rehydrate every stateful operator (source
            // cursor, split, engines, sync controller) from per-PE manifests
            // kept next to the engines' recovery snapshots.
            g = g.with_checkpoint_dir(dir.join("pe"));
        }
        let data_link = if cfg.fuse || cfg.network_delay_us == 0 {
            LinkKind::Local
        } else {
            LinkKind::Network {
                model_delay_us: cfg.network_delay_us,
            }
        };

        let src = g.add_source("source", source);
        let mut split_op = Split::new(cfg.split);
        if let Some(ref a) = active {
            split_op = split_op.with_active_set(Arc::clone(a));
        }
        let split = g.add_op("split", Box::new(split_op));
        g.connect(src, 0, split, PortKind::Data);

        // Engines with their peer topology.
        let mut engine_ids = Vec::with_capacity(n);
        let mut engine_states = Vec::with_capacity(n);
        let mut peer_lists = Vec::with_capacity(n);
        for i in 0..n {
            // Failure-aware mode wires a full peer mesh regardless of the
            // sync strategy: the controller decides receivers at command
            // time (survivors only), so every pair needs a port.
            let peers = if failure_aware {
                SyncStrategy::Broadcast.peers_of(i, n)
            } else {
                cfg.sync.peers_of(i, n)
            };
            let mut op = StreamingPcaOp::new(i as u32, cfg.pca.clone(), peers.len())
                .with_snapshots_every(cfg.snapshot_every);
            if let Some(ref dir) = cfg.recovery_dir {
                op = op.with_recovery(dir.clone(), cfg.recovery_every);
            }
            if failure_aware {
                op = op.with_heartbeats_every(cfg.heartbeat_every);
            }
            if let Some(gate) = sync_gate {
                op = op.with_sync_gate(gate);
            }
            if let Some(threshold) = cfg.divergence_gate {
                op = op.with_divergence_gate(threshold);
            }
            if let Some(ref store) = cfg.epoch_store {
                op = op.with_epoch_store(Arc::clone(store), cfg.publish_every);
            }
            if cfg.emit_outcomes {
                op = op.with_outcomes();
            }
            if cfg.quarantine {
                op = op.with_quarantine();
            }
            if let Some(ref warm) = cfg.warm_start {
                op = op
                    .with_initial_state(warm.clone())
                    .expect("warm-start state incompatible with PCA config");
            }
            engine_states.push(op.state_handle());
            let id = g.add_op(format!("pca-{i}"), Box::new(op));
            g.connect_kind(split, i, id, PortKind::Data, data_link);
            engine_ids.push(id);
            peer_lists.push(peers);
        }

        // Peer-state edges (engine i's port k → peer's control port).
        for (i, peers) in peer_lists.iter().enumerate() {
            for (port, &peer) in peers.iter().enumerate() {
                g.connect_kind(
                    engine_ids[i],
                    port,
                    engine_ids[peer],
                    PortKind::Control,
                    data_link,
                );
            }
        }

        // Synchronization controller (+ optional throttles).
        let mut ctrl_id = None;
        if !matches!(cfg.sync, SyncStrategy::None) && n > 1 {
            let period = if cfg.use_throttle {
                // The explicit throttles do the pacing; the controller only
                // needs to stay ahead of them.
                cfg.sync_period / 4
            } else {
                cfg.sync_period
            };
            // In elastic mode the ring starts at the *active* prefix and
            // reconciles against the membership handle on every drive.
            let ring_size = if elastic { cfg.n_engines } else { n };
            let mut controller = SyncController::new(cfg.sync, ring_size, period);
            if failure_aware {
                // Startup grace: engines announce themselves with their
                // first heartbeat; give slow starters a few timeouts.
                controller =
                    controller.with_liveness(cfg.liveness_timeout, cfg.liveness_timeout * 4);
            }
            if let Some(ref a) = active {
                controller = controller.with_membership(Arc::clone(a));
            }
            let ctrl = g.add_source("sync-controller", Box::new(controller));
            ctrl_id = Some(ctrl);
            // The controller watches the data stream so it winds down with
            // it: source out-port 1 never carries data (the generator only
            // emits on port 0) but is punctuated at end-of-stream like
            // every wired port, so the controller finishes exactly when
            // the stream does — without receiving a copy of the traffic.
            g.connect(src, 1, ctrl, PortKind::Data);
            for (i, &eng) in engine_ids.iter().enumerate() {
                if cfg.use_throttle {
                    let th = g.add_op(
                        format!("throttle-{i}"),
                        Box::new(Throttle::with_period(cfg.sync_period)),
                    );
                    g.connect(ctrl, i, th, PortKind::Control);
                    g.connect(th, 0, eng, PortKind::Control);
                } else {
                    g.connect(ctrl, i, eng, PortKind::Control);
                }
            }
        }

        // Monitor fan-in into the results hub.
        let hub = ResultsHub::new(n);
        let hub_for_sink = hub.clone();
        let monitor = g.add_op(
            "monitor",
            Box::new(CallbackSink::with_control(
                |_d: DataTuple| {},
                move |c: spca_streams::ControlTuple| {
                    if c.kind == KIND_SNAPSHOT {
                        if let Some(state) = c.payload_as::<PeerState>() {
                            hub_for_sink.record(state.clone());
                        }
                    }
                },
            )),
        );
        for (i, &eng) in engine_ids.iter().enumerate() {
            let monitor_port = peer_lists[i].len();
            g.connect(eng, monitor_port, monitor, PortKind::Control);
        }

        // Failure-aware mode: the controller also listens to every monitor
        // port, so heartbeats and snapshots double as liveness reports.
        if failure_aware {
            if let Some(ctrl) = ctrl_id {
                for (i, &eng) in engine_ids.iter().enumerate() {
                    let monitor_port = peer_lists[i].len();
                    g.connect(eng, monitor_port, ctrl, PortKind::Control);
                }
            }
        }

        // Optional snapshot persistence: a second consumer on each monitor
        // port.
        if let Some(ref dir) = cfg.snapshot_dir {
            let writer = g.add_op(
                "snapshot-writer",
                Box::new(crate::persist::SnapshotWriter::new(dir.clone())),
            );
            for (i, &eng) in engine_ids.iter().enumerate() {
                let monitor_port = peer_lists[i].len();
                g.connect(eng, monitor_port, writer, PortKind::Control);
            }
        }

        // Optional outcome collection.
        let outcomes = if cfg.emit_outcomes {
            let (sink, store) = CollectSink::new();
            let out = g.add_op("outcomes", Box::new(sink));
            for (i, &eng) in engine_ids.iter().enumerate() {
                let outcome_port = peer_lists[i].len() + 1;
                g.connect(eng, outcome_port, out, PortKind::Data);
            }
            Some(store)
        } else {
            None
        };

        // Optional quarantine collection.
        let quarantined = if cfg.quarantine {
            let (sink, store) = CollectSink::new();
            let q = g.add_op("quarantine", Box::new(sink));
            for (i, &eng) in engine_ids.iter().enumerate() {
                let port = peer_lists[i].len() + 2;
                g.connect(eng, port, q, PortKind::Data);
            }
            Some(store)
        } else {
            None
        };

        if cfg.fuse {
            // Single-node configuration: everything in one PE, tuples move
            // by pointer.
            let all: Vec<_> = g.edge_list().iter().flat_map(|e| [e.0, e.2]).collect();
            g.fuse(&all);
        }

        (
            g,
            AppHandles {
                hub,
                outcomes,
                quarantined,
                engine_states,
                active,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_core::metrics::subspace_distance;
    use spca_spectra::PlantedSubspace;
    use spca_streams::metrics::Fault;
    use spca_streams::ops::GeneratorSource;
    use spca_streams::Engine;

    const D: usize = 16;

    fn pca_cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(300)
            .with_init_size(20)
            .with_extra(0)
    }

    fn planted_source(n: u64, seed: u64) -> Box<dyn Operator> {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let rng = Arc::new(Mutex::new(StdRng::seed_from_u64(seed)));
        Box::new(
            GeneratorSource::new(move |_| Some((w.sample(&mut *rng.lock()), None)))
                .with_max_tuples(n),
        )
    }

    #[test]
    fn topology_matches_fig2() {
        let cfg = AppConfig::new(4, pca_cfg());
        let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 0));
        // source → split edge, split → 4 engines, 4 ring peer edges,
        // source → controller (shutdown watch), controller → 4 engines,
        // 4 monitor edges. Total 18.
        assert_eq!(g.edge_list().len(), 1 + 4 + 4 + 1 + 4 + 4);
        // The split has data in-degree 1; every engine exactly 1.
        let names = g.op_names();
        assert!(names.contains(&"split"));
        assert!(names.contains(&"sync-controller"));
        assert!(names.contains(&"monitor"));
        assert_eq!(names.iter().filter(|n| n.starts_with("pca-")).count(), 4);
    }

    #[test]
    fn end_to_end_parallel_run_recovers_subspace() {
        let mut cfg = AppConfig::new(4, pca_cfg());
        cfg.sync_period = Duration::from_millis(20);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(4000, 11));
        let report = Engine::run(g);
        // All tuples were consumed by some engine.
        assert_eq!(report.tuples_in_matching("pca-"), 4000);
        // Every engine reported a final snapshot.
        assert_eq!(h.hub.engines_reporting(), 4);
        let merged = h.hub.merged_estimate().unwrap();
        // Ring merges mid-stream fold peer history into each engine, so
        // the merged count double-counts shared history: it is an upper
        // bound, while exact conservation is the tuples_in check above.
        assert!(merged.n_obs >= 4000);
        let truth = PlantedSubspace::new(D, 2, 0.05);
        let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
        assert!(dist < 0.25, "merged distance {dist}");
    }

    #[test]
    fn fused_single_node_run_works() {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.fuse = true;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1500, 12));
        let report = Engine::run(g);
        // Fused: no cross-PE links at all.
        assert!(report.links.is_empty(), "links: {:?}", report.links.len());
        assert_eq!(h.hub.engines_reporting(), 3);
    }

    #[test]
    fn outcome_feed_collects_rows() {
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.emit_outcomes = true;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(500, 13));
        Engine::run(g);
        let outcomes = h.outcomes.unwrap();
        let rows = outcomes.lock();
        // Warm-up tuples don't produce outcomes; everything after does.
        assert!(rows.len() > 400, "only {} outcome rows", rows.len());
        assert!(rows.iter().all(|r| r.values.len() == 5));
    }

    #[test]
    fn single_engine_no_sync_edges() {
        let cfg = AppConfig::new(1, pca_cfg());
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(800, 14));
        // source→split, split→pca, pca→monitor.
        assert_eq!(g.edge_list().len(), 3);
        Engine::run(g);
        assert_eq!(h.hub.engines_reporting(), 1);
        let eig = h.hub.merged_estimate().unwrap();
        assert_eq!(eig.n_obs, 800);
    }

    #[test]
    fn broadcast_topology_has_full_mesh() {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.sync = SyncStrategy::Broadcast;
        let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 15));
        // Peer edges: 3 engines × 2 peers = 6.
        let n_ctrl_peer_edges = g
            .edge_list()
            .iter()
            .filter(|(from, _, to, kind)| {
                *kind == PortKind::Control
                    && g.op_name(*from).starts_with("pca-")
                    && g.op_name(*to).starts_with("pca-")
            })
            .count();
        assert_eq!(n_ctrl_peer_edges, 6);
    }

    #[test]
    fn failure_aware_topology_has_full_mesh_and_liveness_edges() {
        let mut cfg = AppConfig::new(4, pca_cfg());
        cfg.failure_aware_sync = true; // ring strategy, but mesh wiring
        let (g, _h) = ParallelPcaApp::build(&cfg, planted_source(10, 18));
        // source→split 1, split→engines 4, full-mesh peer edges 4·3 = 12,
        // source→controller 1, controller→engines 4, monitor edges 4,
        // monitor→controller liveness edges 4.
        assert_eq!(g.edge_list().len(), 1 + 4 + 12 + 1 + 4 + 4 + 4);
    }

    #[test]
    fn failure_aware_run_converges_without_faults() {
        let mut cfg = AppConfig::new(3, pca_cfg());
        cfg.failure_aware_sync = true;
        cfg.sync_period = Duration::from_millis(5);
        cfg.heartbeat_every = 50;
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(3000, 19));
        let report = Engine::run(g);
        assert_eq!(report.tuples_in_matching("pca-"), 3000);
        assert_eq!(h.hub.engines_reporting(), 3);
        assert_eq!(report.total_restarts(), 0);
        let truth = PlantedSubspace::new(D, 2, 0.05);
        let merged = h.hub.merged_estimate().unwrap();
        let dist = subspace_distance(&merged.basis, truth.basis()).unwrap();
        assert!(dist < 0.3, "merged distance {dist}");
    }

    #[test]
    fn elastic_topology_provisions_standbys_with_mesh_wiring() {
        let mut cfg = AppConfig::new(1, pca_cfg());
        cfg.max_engines = Some(3);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(10, 20));
        // Provisioned fleet of 3 with failure-aware wiring: source→split 1,
        // split→engines 3, full-mesh peer edges 3·2 = 6, source→controller
        // 1, controller→engines 3, monitor edges 3, liveness edges 3.
        assert_eq!(g.edge_list().len(), 1 + 3 + 6 + 1 + 3 + 3 + 3);
        let active = h.active.expect("elastic mode exposes the active set");
        assert_eq!(active.active(), 1, "only the initial prefix is live");
        assert_eq!(active.max(), 3);
        assert_eq!(h.engine_states.len(), 3, "standbys have state handles");
    }

    #[test]
    fn elastic_run_without_supervisor_keeps_standbys_idle() {
        let mut cfg = AppConfig::new(1, pca_cfg());
        cfg.max_engines = Some(3);
        cfg.sync_period = Duration::from_millis(5);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1200, 21));
        let report = Engine::run(g);
        // Nobody flipped the active set: all traffic lands on engine 0 and
        // the standbys never observe a tuple.
        assert_eq!(report.tuples_in_matching("pca-"), 1200);
        assert_eq!(h.engine_states[0].lock().n_obs(), 1200);
        assert_eq!(h.engine_states[1].lock().n_obs(), 0);
        assert_eq!(h.engine_states[2].lock().n_obs(), 0);
        assert_eq!(h.hub.engines_reporting(), 1, "standbys report nothing");
        assert_eq!(report.faults()[Fault::ScaleOuts], 0);
        assert_eq!(report.faults()[Fault::ScaleIns], 0);
    }

    #[test]
    fn throttled_controller_variant_runs() {
        let mut cfg = AppConfig::new(2, pca_cfg());
        cfg.use_throttle = true;
        cfg.sync_period = Duration::from_millis(10);
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(600, 16));
        Engine::run(g);
        assert_eq!(h.hub.engines_reporting(), 2);
    }

    #[test]
    fn live_state_handles_observe_progress() {
        let cfg = AppConfig::new(2, pca_cfg());
        let (g, h) = ParallelPcaApp::build(&cfg, planted_source(1000, 17));
        Engine::run(g);
        let total: u64 = h.engine_states.iter().map(|s| s.lock().n_obs()).sum();
        assert_eq!(total, 1000);
    }
}
