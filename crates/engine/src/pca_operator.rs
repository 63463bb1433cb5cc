//! The stateful streaming-PCA operator (§III-A's custom C++ operator).
//!
//! "The stateful Streaming PCA operator stores the eigenvalues and
//! eigenvectors (the eigensystem) as well as other state variables as
//! class members. Upon receiving a new input tuple, its internal states
//! are continuously updated by computationally inexpensive algebraic
//! operations."
//!
//! Port layout (configured by the application builder):
//!
//! * output ports `0 .. n_peer_ports` — peer-state ports: on a sync
//!   command the operator sends its eigensystem out of the commanded
//!   subset of these.
//! * output port `n_peer_ports` — monitor port: periodic eigensystem
//!   snapshots (the paper's "intermediate calculation results are
//!   periodically saved to the disk") plus the final state on finish.
//! * output port `n_peer_ports + 1` — outcome port (optional feed of
//!   per-tuple `[seq, r², t, w, outlier]` rows, the in-flight results /
//!   outlier flags the introduction motivates).
//! * output port `n_peer_ports + 2` — quarantine port (optional): flagged
//!   observations are forwarded *verbatim* for downstream processing —
//!   "often the goal is to flag outliers for further processing" (§II-C);
//!   rejected tuples carry zero weight in the eigensystem but are never
//!   dropped from the quarantine feed.
//!
//! The operator state is guarded by a `parking_lot::Mutex` exactly as the
//! paper guards its operator with an InfoSphere mutex — the engine never
//! calls one operator concurrently, but the lock documents and enforces
//! the invariant cheaply, and lets diagnostics peek at live state.

use crate::messages::{
    Heartbeat, PeerState, SyncCommand, KIND_HEARTBEAT, KIND_PEER_STATE, KIND_SNAPSHOT,
    KIND_SYNC_COMMAND,
};
use crate::persist;
use parking_lot::Mutex;
use spca_core::{merge, PcaConfig, RobustPca};
use spca_streams::checkpoint::{decode_kv, encode_kv, kv_u64, Checkpoint};
use spca_streams::metrics::Fault;
use spca_streams::{ControlTuple, DataTuple, OpContext, Operator};
use std::path::PathBuf;
use std::sync::Arc;

/// The streaming PCA operator.
pub struct StreamingPcaOp {
    /// Engine index within the application (used in message provenance).
    pub engine_id: u32,
    state: Arc<Mutex<RobustPca>>,
    n_peer_ports: usize,
    snapshot_every: u64,
    emit_outcomes: bool,
    emit_quarantine: bool,
    /// Observations processed since the last synchronization share or
    /// merge — the paper's independence gate counter.
    obs_since_sync: u64,
    /// Gate threshold: share only when `obs_since_sync > 1.5 · N`.
    sync_gate: u64,
    /// Optional data-driven gate: share only when the subspace distance to
    /// the most recently received peer state exceeds this (None = always).
    divergence_gate: Option<f64>,
    /// Basis of the last peer state received, for the divergence check.
    last_peer: Option<spca_core::EigenSystem>,
    processed: u64,
    outliers_flagged: u64,
    dropped: u64,
    /// Non-finite observations rejected at the operator boundary. NaN/Inf
    /// payloads would otherwise contaminate the running sums irreversibly
    /// (a single NaN poisons every covariance estimate it touches), so
    /// they carry zero weight in the eigensystem and only feed the
    /// quarantine port.
    quarantined: u64,
    merges_applied: u64,
    shares_sent: u64,
    /// When set, the operator synchronously writes its eigensystem to
    /// `recovery_path(dir, engine_id)` every `recovery_every` processed
    /// tuples; [`Operator::recover`] rehydrates from that file after a
    /// supervised restart.
    recovery_dir: Option<PathBuf>,
    recovery_every: u64,
    /// When nonzero, a [`KIND_HEARTBEAT`] goes out on the monitor port at
    /// the first processed tuple and every `heartbeat_every` thereafter,
    /// feeding the failure-aware sync controller's liveness tracker.
    heartbeat_every: u64,
    /// Serving-layer publication target: when set, the operator publishes
    /// an immutable snapshot of its eigensystem into the epoch store
    /// every `publish_every` processed tuples, after every merge, and at
    /// finish. The copy reuses recycled snapshot buffers, so steady-state
    /// publishing keeps the update path allocation-free.
    epoch_store: Option<Arc<crate::epoch::EpochStore>>,
    publish_every: u64,
    /// True once the first post-warm-up snapshot has been published, so
    /// serving opens as soon as the estimator initializes instead of at
    /// the next cadence boundary.
    published_once: bool,
}

impl StreamingPcaOp {
    /// Creates an engine with the given PCA configuration and `n_peer_ports`
    /// state outputs. The sync gate follows the paper: `1.5 · N` where
    /// `N = 1/(1−α)` (falls back to `u64::MAX` for α = 1, i.e. never
    /// independent, so never gated *open*... which would disable sync; for
    /// α = 1 the gate is instead pinned to `1.5 · init_size`).
    pub fn new(engine_id: u32, cfg: PcaConfig, n_peer_ports: usize) -> Self {
        // `ceil`, not truncation: the gate is compared with strict `>`, so
        // a truncated `(1.5 * mem) as u64` would let an engine share one
        // observation before `obs_since_sync > 1.5·N` actually holds
        // whenever 1.5·N is fractional (e.g. N = 3 → gate 4, shared at 5
        // observations instead of the required ⌈4.5⌉ = 5 → shared at 6).
        let mem = cfg.effective_memory();
        let sync_gate = if mem.is_finite() {
            (1.5 * mem).ceil() as u64
        } else {
            (1.5 * cfg.init_size as f64).ceil() as u64
        };
        StreamingPcaOp {
            engine_id,
            state: Arc::new(Mutex::new(RobustPca::new(cfg))),
            n_peer_ports,
            snapshot_every: 0,
            emit_outcomes: false,
            emit_quarantine: false,
            obs_since_sync: 0,
            sync_gate,
            divergence_gate: None,
            last_peer: None,
            processed: 0,
            outliers_flagged: 0,
            dropped: 0,
            quarantined: 0,
            merges_applied: 0,
            shares_sent: 0,
            recovery_dir: None,
            recovery_every: 0,
            heartbeat_every: 0,
            epoch_store: None,
            publish_every: 0,
            published_once: false,
        }
    }

    /// Emits an eigensystem snapshot on the monitor port every `n` tuples
    /// (0 = only the final snapshot).
    pub fn with_snapshots_every(mut self, n: u64) -> Self {
        self.snapshot_every = n;
        self
    }

    /// Enables crash recovery: every `every` processed tuples the operator
    /// *synchronously* writes its eigensystem to
    /// [`persist::recovery_path`]`(dir, engine_id)` (atomic
    /// rename, see [`persist::write_snapshot`]), and a supervised restart
    /// rehydrates from that file. Synchronous matters: the asynchronous
    /// [`persist::SnapshotWriter`] on the monitor stream may lag the
    /// operator at the moment of a crash, but this file is always exactly
    /// as fresh as the last multiple of `every`.
    pub fn with_recovery(mut self, dir: impl Into<PathBuf>, every: u64) -> Self {
        assert!(every > 0, "recovery cadence must be positive");
        self.recovery_dir = Some(dir.into());
        self.recovery_every = every;
        self
    }

    /// Emits a liveness heartbeat on the monitor port at the first
    /// processed tuple and every `n` thereafter.
    pub fn with_heartbeats_every(mut self, n: u64) -> Self {
        self.heartbeat_every = n;
        self
    }

    /// Enables the per-tuple outcome feed on the outcome port.
    pub fn with_outcomes(mut self) -> Self {
        self.emit_outcomes = true;
        self
    }

    /// Enables the quarantine feed: observations flagged as outliers are
    /// forwarded verbatim on the quarantine port.
    pub fn with_quarantine(mut self) -> Self {
        self.emit_quarantine = true;
        self
    }

    /// Overrides the sync gate (tests / ablations).
    pub fn with_sync_gate(mut self, gate: u64) -> Self {
        self.sync_gate = gate;
        self
    }

    /// Enables the data-driven synchronization check (§I's "data-driven
    /// synchronization", §II-C's "the nodes verify every time that the
    /// eigensystems are statistically independent"): on a sync command,
    /// the engine shares only if its basis has drifted more than
    /// `threshold` (subspace distance) from the last peer state it saw.
    /// Engines that have never heard from a peer always share.
    pub fn with_divergence_gate(mut self, threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        self.divergence_gate = Some(threshold);
        self
    }

    /// Publishes epoch-numbered eigensystem snapshots into `store` every
    /// `every` processed tuples (plus after every merge and at finish),
    /// making the live eigensystem queryable by the serving layer. A
    /// cadence of 0 publishes only on initialization, merges, and finish.
    /// Prewarms the store's snapshot pool here (build time, off the
    /// update thread) so steady-state publishing never allocates and
    /// pool exhaustion sheds a publish instead of allocating.
    pub fn with_epoch_store(mut self, store: Arc<crate::epoch::EpochStore>, every: u64) -> Self {
        let (d, k) = {
            let st = self.state.lock();
            let c = st.config();
            (c.dim, c.p_total())
        };
        store.prewarm(crate::epoch::PREWARM_PER_WRITER, d, k);
        self.epoch_store = Some(store);
        self.publish_every = every;
        self
    }

    /// Copies the current eigensystem into a recycled snapshot buffer and
    /// publishes it — allocation-free unconditionally: the pool is
    /// prewarmed, and if stalled readers have drained it the publish is
    /// shed (readers keep the previous epoch) rather than allocating on
    /// the update thread. The state lock covers only the copy; the
    /// pointer swap happens after release, so readers and the publish
    /// itself never touch the update hot path.
    fn publish_epoch(&mut self) {
        let Some(store) = &self.epoch_store else {
            return;
        };
        let Some(mut buf) = store.try_checkout() else {
            return; // pool drained by stalled readers: shed this publish
        };
        let filled = {
            let st = self.state.lock();
            match st.full_eigensystem() {
                Some(eig) => {
                    buf.eig.copy_from(eig);
                    buf.p = st.config().p;
                    true
                }
                None => false, // warm-up: nothing to serve yet
            }
        };
        if filled {
            store.publish(buf);
            self.published_once = true;
        } else {
            store.recycle(buf);
        }
    }

    /// Warm-starts the engine from a previously persisted eigensystem:
    /// the warm-up phase is skipped and streaming resumes from the given
    /// state. Fails if the state's shape does not match the configuration.
    pub fn with_initial_state(self, eig: spca_core::EigenSystem) -> spca_core::Result<Self> {
        self.state.lock().install_eigensystem(eig)?;
        Ok(self)
    }

    /// Shared handle to the live PCA state (diagnostics).
    pub fn state_handle(&self) -> Arc<Mutex<RobustPca>> {
        Arc::clone(&self.state)
    }

    fn monitor_port(&self) -> usize {
        self.n_peer_ports
    }

    fn outcome_port(&self) -> usize {
        self.n_peer_ports + 1
    }

    fn quarantine_port(&self) -> usize {
        self.n_peer_ports + 2
    }

    fn snapshot(&self, ctx: &mut OpContext<'_>) {
        // The lock covers only the state read: clone the eigensystem (and
        // observation count) under it, then assemble the message and send
        // with the lock released, so a slow or blocking downstream port can
        // never stall the per-tuple update path of a concurrent reader.
        let (eigensystem, n_obs) = {
            let st = self.state.lock();
            match st.full_eigensystem() {
                Some(eig) => (eig.clone(), st.n_obs()),
                None => return,
            }
        };
        let msg = PeerState {
            engine: self.engine_id,
            eigensystem,
            n_obs,
            shares_sent: self.shares_sent,
            merges_applied: self.merges_applied,
        };
        ctx.emit_control(
            self.monitor_port(),
            ControlTuple::new(KIND_SNAPSHOT, self.engine_id, Arc::new(msg)),
        );
    }

    fn heartbeat(&self, ctx: &mut OpContext<'_>) {
        let msg = Heartbeat {
            engine: self.engine_id,
            n_obs: self.processed,
        };
        ctx.emit_control(
            self.monitor_port(),
            ControlTuple::new(KIND_HEARTBEAT, self.engine_id, Arc::new(msg)),
        );
    }

    /// Writes the recovery snapshot. Same lock discipline as [`snapshot`]:
    /// clone the eigensystem under the lock, touch the filesystem after
    /// release.
    fn write_recovery(&self) {
        let Some(dir) = &self.recovery_dir else {
            return;
        };
        let eig = {
            let st = self.state.lock();
            match st.full_eigensystem() {
                Some(eig) => eig.clone(),
                None => return, // still warming up: nothing worth persisting
            }
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "engine {}: cannot create recovery dir {}: {e}",
                self.engine_id,
                dir.display()
            );
            return;
        }
        let path = persist::recovery_path(dir, self.engine_id);
        if let Err(e) = persist::write_snapshot(&path, &eig) {
            eprintln!(
                "engine {}: recovery snapshot failed for {}: {e}",
                self.engine_id,
                path.display()
            );
        }
    }
}

impl Operator for StreamingPcaOp {
    fn process(&mut self, tuple: DataTuple, ctx: &mut OpContext<'_>) {
        // Dead-letter boundary: a NaN or Inf would poison the running sums
        // irreversibly, so non-finite observations never reach the state —
        // they are counted, optionally forwarded on the quarantine port,
        // and contribute zero weight to the eigensystem.
        if !tuple.all_finite() {
            self.quarantined += 1;
            ctx.count(Fault::Quarantined);
            if self.quarantined <= 5 || self.quarantined.is_multiple_of(1000) {
                eprintln!(
                    "engine {}: quarantined non-finite tuple {} ({} so far)",
                    self.engine_id, tuple.seq, self.quarantined
                );
            }
            if self.emit_quarantine {
                ctx.emit_data(self.quarantine_port(), tuple);
            }
            return;
        }
        let outcome = {
            let mut st = self.state.lock();
            match tuple.mask.as_deref() {
                Some(mask) => st.update_masked(&tuple.values, mask),
                None => st.update(&tuple.values),
            }
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                // Malformed observations are data-quality events, not engine
                // failures: count and continue, like any production stream
                // processor. Log the first few and then once per thousand,
                // so a persistently dirty feed cannot flood stderr.
                self.dropped += 1;
                if self.dropped <= 5 || self.dropped.is_multiple_of(1000) {
                    eprintln!(
                        "engine {}: dropped tuple {} ({} dropped so far): {e}",
                        self.engine_id, tuple.seq, self.dropped
                    );
                }
                return;
            }
        };
        self.processed += 1;
        self.obs_since_sync += 1;
        if outcome.outlier {
            self.outliers_flagged += 1;
        }
        if self.emit_outcomes && outcome.initialized {
            let row = vec![
                tuple.seq as f64,
                outcome.residual_sq,
                outcome.scaled_residual,
                outcome.weight,
                if outcome.outlier { 1.0 } else { 0.0 },
            ];
            ctx.emit_data(self.outcome_port(), DataTuple::new(tuple.seq, row));
        }
        if self.emit_quarantine && outcome.outlier {
            // Forward the flagged observation itself (values are shared via
            // Arc, so this is pointer-cheap).
            ctx.emit_data(self.quarantine_port(), tuple.clone());
        }
        if self.epoch_store.is_some()
            && outcome.initialized
            && (!self.published_once
                || (self.publish_every > 0 && self.processed.is_multiple_of(self.publish_every)))
        {
            self.publish_epoch();
        }
        if self.snapshot_every > 0 && self.processed.is_multiple_of(self.snapshot_every) {
            self.snapshot(ctx);
        }
        if self.recovery_every > 0 && self.processed.is_multiple_of(self.recovery_every) {
            self.write_recovery();
        }
        if self.heartbeat_every > 0
            && (self.processed == 1 || self.processed.is_multiple_of(self.heartbeat_every))
        {
            self.heartbeat(ctx);
        }
    }

    fn on_control(&mut self, tuple: ControlTuple, ctx: &mut OpContext<'_>) {
        match tuple.kind {
            KIND_SYNC_COMMAND => {
                // Independence gate (§II-C): share only when enough new
                // observations have accumulated since the last exchange.
                // Counted as a sync skip: after a supervised restart the
                // gate holds the engine out of the exchange protocol until
                // it has re-earned statistical independence, and the skip
                // count is how the run report makes that visible.
                if self.obs_since_sync <= self.sync_gate {
                    ctx.count(Fault::SyncSkips);
                    return;
                }
                let Some(cmd) = tuple.payload_as::<SyncCommand>() else {
                    return;
                };
                // Lock scope: the divergence check and the eigensystem
                // clone only. Message assembly and the port sends happen
                // after release (sends can block on backpressure; holding
                // the state lock there would couple downstream congestion
                // to the update hot path).
                let (eigensystem, n_obs) = {
                    let st = self.state.lock();
                    let Some(own) = st.full_eigensystem() else {
                        return;
                    };
                    // Data-driven gate: skip the exchange when this engine's
                    // estimate still agrees with what its peers last
                    // reported — nothing informative to send.
                    if let (Some(threshold), Some(peer)) = (self.divergence_gate, &self.last_peer) {
                        match spca_core::metrics::subspace_distance(&own.basis, &peer.basis) {
                            Ok(d) if d <= threshold => return,
                            _ => {}
                        }
                    }
                    (own.clone(), st.n_obs())
                };
                let payload: Arc<PeerState> = Arc::new(PeerState {
                    engine: self.engine_id,
                    eigensystem,
                    n_obs,
                    shares_sent: self.shares_sent,
                    merges_applied: self.merges_applied,
                });
                for &port in &cmd.share_ports {
                    if port < self.n_peer_ports {
                        ctx.emit_control(
                            port,
                            ControlTuple::new(
                                KIND_PEER_STATE,
                                self.engine_id,
                                Arc::clone(&payload) as Arc<_>,
                            ),
                        );
                        self.shares_sent += 1;
                    }
                }
                self.obs_since_sync = 0;
            }
            KIND_PEER_STATE => {
                let Some(peer) = tuple.payload_as::<PeerState>() else {
                    return;
                };
                self.last_peer = Some(peer.eigensystem.clone());
                let mut st = self.state.lock();
                let merged = match st.full_eigensystem() {
                    Some(own) => merge(own, &peer.eigensystem),
                    // Not initialized yet: adopt the peer's state outright.
                    None => Ok(peer.eigensystem.clone()),
                };
                let merged_ok = match merged.and_then(|m| st.install_eigensystem(m)) {
                    Ok(()) => {
                        self.merges_applied += 1;
                        // A merge resets the independence clock too.
                        self.obs_since_sync = 0;
                        true
                    }
                    Err(e) => {
                        eprintln!(
                            "engine {}: rejected peer state from {}: {e}",
                            self.engine_id, peer.engine
                        );
                        false
                    }
                };
                drop(st);
                // A merge changes the served estimate discontinuously, so
                // the serving layer gets the new state immediately.
                if merged_ok {
                    self.publish_epoch();
                }
            }
            _ => {}
        }
    }

    fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
        self.snapshot(ctx);
        self.publish_epoch();
    }

    /// Supervised-restart hook: rehydrate from the latest recovery
    /// snapshot. Without a recovery directory the operator declines the
    /// restart (returns `false`) and the supervisor finishes it — losing
    /// state silently would be worse than dying visibly. With a directory
    /// but no snapshot yet (crash before the first cadence tick), restart
    /// fresh from the configuration.
    fn recover(&mut self, attempt: u64) -> bool {
        let Some(dir) = self.recovery_dir.clone() else {
            return false;
        };
        let path = persist::recovery_path(&dir, self.engine_id);
        let cfg = self.state.lock().config().clone();
        let mut fresh = RobustPca::new(cfg);
        let restored_obs = match persist::read_snapshot(&path) {
            Ok(eig) => {
                let n = eig.n_obs;
                if let Err(e) = fresh.install_eigensystem(eig) {
                    eprintln!(
                        "engine {}: recovery snapshot {} does not fit the \
                         configuration: {e}",
                        self.engine_id,
                        path.display()
                    );
                    return false;
                }
                n
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => {
                eprintln!(
                    "engine {}: cannot read recovery snapshot {}: {e}",
                    self.engine_id,
                    path.display()
                );
                return false;
            }
        };
        *self.state.lock() = fresh;
        self.processed = restored_obs;
        // The restart re-enters the exchange protocol from scratch: the
        // independence gate must pass again before the engine shares, and
        // any remembered peer state predates the crash.
        self.obs_since_sync = 0;
        self.last_peer = None;
        eprintln!(
            "engine {}: restart #{attempt} rehydrated {} observations from {}",
            self.engine_id,
            restored_obs,
            path.display()
        );
        true
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// Marker line separating the counter header from the embedded eigensystem
/// (absent while the operator is still warming up).
const EIG_MARKER: &[u8] = b"eigensystem\n";

/// Universal-checkpoint facet: the counters as a key-value header, followed
/// by the eigensystem in the same self-describing text format as the
/// on-disk snapshots ([`persist::encode_snapshot`]), so a PE-manifest blob
/// is inspectable with a text editor exactly like a standalone snapshot.
/// `last_peer` is deliberately not captured: like a supervised restart, a
/// restored engine forgets pre-crash peer gossip and re-earns it.
impl Checkpoint for StreamingPcaOp {
    fn snapshot(&self) -> Vec<u8> {
        let mut out = encode_kv(&[
            ("processed", self.processed.to_string()),
            ("obs_since_sync", self.obs_since_sync.to_string()),
            ("outliers_flagged", self.outliers_flagged.to_string()),
            ("dropped", self.dropped.to_string()),
            ("quarantined", self.quarantined.to_string()),
            ("merges_applied", self.merges_applied.to_string()),
            ("shares_sent", self.shares_sent.to_string()),
        ]);
        let eig = {
            let st = self.state.lock();
            st.full_eigensystem().cloned()
        };
        if let Some(eig) = eig {
            out.extend_from_slice(EIG_MARKER);
            out.extend_from_slice(&persist::encode_snapshot(&eig));
        }
        out
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        // Split at the marker line: kv header before, eigensystem after.
        let (head, eig_bytes) = if bytes.starts_with(EIG_MARKER) {
            (&bytes[..0], Some(&bytes[EIG_MARKER.len()..]))
        } else {
            let pat = b"\neigensystem\n";
            match bytes.windows(pat.len()).position(|w| w == pat) {
                Some(pos) => (&bytes[..pos + 1], Some(&bytes[pos + pat.len()..])),
                None => (bytes, None),
            }
        };
        let kv = decode_kv(head)?;
        let cfg = self.state.lock().config().clone();
        let mut fresh = RobustPca::new(cfg);
        if let Some(eig_bytes) = eig_bytes {
            let eig = persist::decode_snapshot(eig_bytes)?;
            fresh
                .install_eigensystem(eig)
                .map_err(|e| bad(&format!("checkpoint does not fit the configuration: {e}")))?;
        }
        self.processed = kv_u64(&kv, "processed")?;
        self.obs_since_sync = kv_u64(&kv, "obs_since_sync")?;
        self.outliers_flagged = kv_u64(&kv, "outliers_flagged")?;
        self.dropped = kv_u64(&kv, "dropped")?;
        self.quarantined = kv_u64(&kv, "quarantined")?;
        self.merges_applied = kv_u64(&kv, "merges_applied")?;
        self.shares_sent = kv_u64(&kv, "shares_sent")?;
        self.last_peer = None;
        *self.state.lock() = fresh;
        Ok(())
    }

    fn checkpoint_every(&self) -> u64 {
        if self.recovery_every > 0 {
            self.recovery_every
        } else {
            spca_streams::DEFAULT_CHECKPOINT_EVERY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spca_spectra::PlantedSubspace;
    use spca_streams::operator::testing::{with_ctx, with_sink, CaptureSink};
    use spca_streams::Tuple;

    const D: usize = 16;

    fn cfg() -> PcaConfig {
        PcaConfig::new(D, 2)
            .with_memory(200)
            .with_init_size(20)
            .with_extra(0)
    }

    fn feed(op: &mut StreamingPcaOp, n: usize, seed: u64) -> u64 {
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(seed);
        with_ctx(op.n_peer_ports + 2, |ctx| {
            for seq in 0..n {
                op.process(DataTuple::new(seq as u64, w.sample(&mut rng)), ctx);
            }
        });
        op.processed
    }

    #[test]
    fn operator_learns_subspace() {
        let mut op = StreamingPcaOp::new(0, cfg(), 1);
        feed(&mut op, 1000, 1);
        let st = op.state_handle();
        let guard = st.lock();
        assert!(guard.is_initialized());
        let eig = guard.eigensystem();
        let dist = spca_core::metrics::subspace_distance(
            &eig.basis,
            PlantedSubspace::new(D, 2, 0.05).basis(),
        )
        .unwrap();
        assert!(dist < 0.2, "distance {dist}");
    }

    #[test]
    fn sync_command_gated_until_enough_observations() {
        let mut op = StreamingPcaOp::new(0, cfg(), 1); // gate = 1.5·200 = 300
        feed(&mut op, 100, 2);
        let sink = with_ctx(3, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(
            sink.ports[0].is_empty(),
            "gate should have blocked the share"
        );
        assert_eq!(op.shares_sent, 0);
    }

    #[test]
    fn sync_gate_boundary_rounds_up_never_down() {
        // `with_memory(N)` stores α = 1 − 1/N; recovering N = 1/(1−α) in
        // floats can land a hair *below* the integer (e.g. 4999.999…), so a
        // truncating cast would yield gate 1.5·N − 1 and the strict `>`
        // comparison would admit a share one observation early. `ceil`
        // pins the gate at ≥ 1.5·N for every memory value.
        for mem in [3usize, 7, 200, 5000, 9999] {
            let c = PcaConfig::new(D, 2).with_memory(mem).with_init_size(20);
            let op = StreamingPcaOp::new(0, c, 1);
            let exact = 1.5 * mem as f64;
            assert!(
                (op.sync_gate as f64) >= exact - 1e-6,
                "memory {mem}: gate {} fell below 1.5·N = {exact}",
                op.sync_gate
            );
            assert!(
                (op.sync_gate as f64) <= exact + 1.0,
                "memory {mem}: gate {} overshot 1.5·N = {exact} by > 1",
                op.sync_gate
            );
        }
        // Fractional boundary pinned exactly: N = 3 → 1.5·N = 4.5 → gate 5.
        let op = StreamingPcaOp::new(0, PcaConfig::new(D, 2).with_memory(3), 1);
        assert_eq!(op.sync_gate, 5, "⌈4.5⌉ = 5, truncation would give 4");
        // Exact-integer boundary unchanged: N = 200 → gate 300, and a share
        // at obs_since_sync = 300 is still blocked (strict `>`).
        let mut op = StreamingPcaOp::new(0, cfg(), 1);
        assert_eq!(op.sync_gate, 300);
        feed(&mut op, 300, 21);
        op.obs_since_sync = 300;
        let sink = with_ctx(3, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty(), "obs == gate must stay gated");
        assert_eq!(op.shares_sent, 0);
    }

    #[test]
    fn sync_command_shares_after_gate_passes() {
        let mut op = StreamingPcaOp::new(0, cfg(), 2);
        feed(&mut op, 400, 3); // beyond the 300 gate
        let sink = with_ctx(4, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![1],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty());
        assert_eq!(sink.ports[1].len(), 1);
        match &sink.ports[1][0] {
            Tuple::Control(c) => {
                assert_eq!(c.kind, KIND_PEER_STATE);
                let st = c.payload_as::<PeerState>().unwrap();
                assert_eq!(st.engine, 0);
                assert_eq!(st.eigensystem.dim(), D);
            }
            other => panic!("expected control tuple, got {other:?}"),
        }
        assert_eq!(op.obs_since_sync, 0, "share resets the gate clock");
    }

    #[test]
    fn peer_state_merges_into_local() {
        let mut a = StreamingPcaOp::new(0, cfg(), 1);
        let mut b = StreamingPcaOp::new(1, cfg(), 1);
        feed(&mut a, 500, 4);
        feed(&mut b, 500, 5);
        let sb = b.state_handle();
        let peer = PeerState {
            engine: 1,
            eigensystem: sb.lock().full_eigensystem().unwrap().clone(),
            n_obs: 500,
            shares_sent: 0,
            merges_applied: 0,
        };
        let n_before = a.state_handle().lock().full_eigensystem().unwrap().n_obs;
        with_ctx(3, |ctx| {
            a.on_control(ControlTuple::new(KIND_PEER_STATE, 1, Arc::new(peer)), ctx);
        });
        assert_eq!(a.merges_applied, 1);
        let after = a.state_handle().lock().full_eigensystem().unwrap().clone();
        assert_eq!(after.n_obs, n_before + 500, "merge sums observation counts");
        after.check_invariants().unwrap();
    }

    #[test]
    fn outcome_feed_reports_outliers() {
        let mut op = StreamingPcaOp::new(0, cfg(), 0).with_outcomes();
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(6);
        let sink = with_ctx(2, |ctx| {
            for seq in 0..300u64 {
                op.process(DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
            // A gross outlier.
            let mut spike = vec![0.0; D];
            spike[7] = 500.0;
            op.process(DataTuple::new(300, spike), ctx);
        });
        let outcomes = sink.data_at(1);
        assert!(!outcomes.is_empty());
        let last = outcomes.last().unwrap();
        assert_eq!(last.seq, 300);
        assert_eq!(
            last.values[4], 1.0,
            "outlier flag expected: {:?}",
            last.values
        );
        assert!(op.outliers_flagged >= 1);
    }

    #[test]
    fn final_snapshot_on_finish() {
        let mut op = StreamingPcaOp::new(2, cfg(), 0);
        feed(&mut op, 100, 7);
        let sink = with_ctx(2, |ctx| op.on_finish(ctx));
        assert_eq!(sink.ports[0].len(), 1);
        match &sink.ports[0][0] {
            Tuple::Control(c) => assert_eq!(c.kind, KIND_SNAPSHOT),
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn divergence_gate_suppresses_redundant_shares() {
        // Engine whose state matches its peer's must not share; an engine
        // that drifted must.
        let mut a = StreamingPcaOp::new(0, cfg(), 1).with_divergence_gate(0.2);
        feed(&mut a, 800, 30); // past the 1.5N gate of 300
                               // Tell it about a peer that has the SAME state (itself).
        let own = a.state_handle().lock().full_eigensystem().unwrap().clone();
        let same_peer = PeerState {
            engine: 1,
            eigensystem: own,
            n_obs: 800,
            shares_sent: 0,
            merges_applied: 0,
        };
        with_ctx(3, |ctx| {
            a.on_control(
                ControlTuple::new(KIND_PEER_STATE, 1, Arc::new(same_peer)),
                ctx,
            );
        });
        // Accumulate past the obs gate again (the merge reset it).
        feed(&mut a, 400, 31);
        let sink = with_ctx(3, |ctx| {
            a.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(
            sink.ports[0].is_empty(),
            "share should be suppressed when agreeing with the peer"
        );

        // Now hand it a peer living on a different subspace: divergence
        // check must open the gate. (Merging rotates our state toward the
        // peer, so inject the peer as `last_peer` via a fresh op and feed
        // it data from a different plane.)
        let mut b = StreamingPcaOp::new(2, cfg(), 1).with_divergence_gate(0.2);
        feed(&mut b, 800, 32);
        let mut off_basis = spca_core::EigenSystem::zeros(D, 2);
        off_basis.basis[(D - 1, 0)] = 1.0;
        off_basis.basis[(D - 2, 1)] = 1.0;
        off_basis.values = vec![1.0, 0.5];
        off_basis.sum_v = 1e-9; // negligible weight: merge barely moves us
        let far_peer = PeerState {
            engine: 3,
            eigensystem: off_basis,
            n_obs: 1,
            shares_sent: 0,
            merges_applied: 0,
        };
        with_ctx(3, |ctx| {
            b.on_control(
                ControlTuple::new(KIND_PEER_STATE, 3, Arc::new(far_peer)),
                ctx,
            );
        });
        feed(&mut b, 400, 33);
        let sink = with_ctx(3, |ctx| {
            b.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert_eq!(sink.ports[0].len(), 1, "divergent engine must share");
    }

    #[test]
    fn state_lock_never_held_across_port_sends() {
        // Port sends can block on downstream backpressure; the operator
        // must have released its state mutex by then or a congested output
        // would stall every reader of the live state. The capture sink's
        // emit hook checks the mutex at the exact moment of each send,
        // across all emitting paths: outcome feed, quarantine feed,
        // periodic snapshot, sync-command share, and the final snapshot.
        let mut op = StreamingPcaOp::new(0, cfg(), 1)
            .with_outcomes()
            .with_quarantine()
            .with_snapshots_every(50)
            .with_sync_gate(0);
        let handle = op.state_handle();
        let mut sink = CaptureSink::new(op.n_peer_ports + 3);
        let watched = Arc::clone(&handle);
        sink.on_emit = Some(Box::new(move |port, _| {
            assert!(
                !watched.is_locked(),
                "state mutex held during send on port {port}"
            );
        }));
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(8);
        with_sink(&mut sink, |ctx| {
            for seq in 0..400u64 {
                op.process(DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
            // A gross outlier to force the quarantine path.
            let mut spike = vec![0.0; D];
            spike[3] = 500.0;
            op.process(DataTuple::new(400, spike), ctx);
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
            op.on_finish(ctx);
        });
        // Every path must actually have emitted, or the hook proved nothing.
        assert!(!sink.ports[0].is_empty(), "peer share expected");
        assert!(
            sink.ports[1].len() >= 2,
            "periodic + final snapshots expected"
        );
        assert!(!sink.ports[2].is_empty(), "outcome feed expected");
        assert!(!sink.ports[3].is_empty(), "quarantine feed expected");
    }

    #[test]
    fn malformed_tuple_dropped_not_fatal() {
        let mut op = StreamingPcaOp::new(0, cfg(), 0);
        with_ctx(2, |ctx| {
            op.process(DataTuple::new(0, vec![1.0; 3]), ctx); // wrong dim
        });
        assert_eq!(op.processed, 0);
    }

    fn assert_eig_bits_equal(a: &spca_core::EigenSystem, b: &spca_core::EigenSystem) {
        assert_eq!(a.n_obs, b.n_obs);
        assert_eq!(a.sigma2.to_bits(), b.sigma2.to_bits());
        assert_eq!(a.sum_u.to_bits(), b.sum_u.to_bits());
        assert_eq!(a.sum_v.to_bits(), b.sum_v.to_bits());
        assert_eq!(a.sum_q.to_bits(), b.sum_q.to_bits());
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.mean.iter().zip(&b.mean) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.basis.sub(&b.basis).unwrap().max_abs(), 0.0);
    }

    #[test]
    fn nan_tuples_quarantined_and_eigensystem_bit_identical() {
        // The regression the dead-letter boundary exists for: a stream
        // with NaN/Inf tuples interleaved must yield the *bit-identical*
        // eigensystem of the clean stream — zero weight, not "almost no"
        // weight.
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::with_sink_counters;

        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut clean = StreamingPcaOp::new(0, cfg(), 0);
        let mut dirty = StreamingPcaOp::new(0, cfg(), 0);

        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<Vec<f64>> = (0..600).map(|_| w.sample(&mut rng)).collect();

        with_ctx(2, |ctx| {
            for (seq, s) in samples.iter().enumerate() {
                clean.process(DataTuple::new(seq as u64, s.clone()), ctx);
            }
        });

        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(2);
        with_sink_counters(&mut sink, &counters, |ctx| {
            for (seq, s) in samples.iter().enumerate() {
                dirty.process(DataTuple::new(seq as u64, s.clone()), ctx);
                if seq % 100 == 7 {
                    let mut bad = vec![0.0; D];
                    bad[seq % D] = if seq % 200 == 7 {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                    dirty.process(DataTuple::new(10_000 + seq as u64, bad), ctx);
                }
            }
        });

        assert_eq!(dirty.quarantined, 6);
        assert_eq!(counters.snapshot().faults[Fault::Quarantined], 6);
        assert_eq!(dirty.processed, clean.processed);
        let a = clean.state_handle();
        let b = dirty.state_handle();
        let (ga, gb) = (a.lock(), b.lock());
        assert_eig_bits_equal(
            ga.full_eigensystem().unwrap(),
            gb.full_eigensystem().unwrap(),
        );
    }

    #[test]
    fn quarantine_port_receives_nonfinite_tuples_verbatim() {
        let mut op = StreamingPcaOp::new(0, cfg(), 0).with_quarantine();
        let sink = with_ctx(3, |ctx| {
            op.process(DataTuple::new(4, vec![f64::NAN; D]), ctx);
        });
        let q = sink.data_at(2);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].seq, 4);
        assert!(q[0].values[0].is_nan(), "tuple forwarded verbatim");
        assert_eq!(op.processed, 0, "quarantined tuple carries no weight");
    }

    #[test]
    fn gated_sync_command_counts_a_skip() {
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::with_sink_counters;
        let mut op = StreamingPcaOp::new(0, cfg(), 1); // gate = 300
        feed(&mut op, 100, 12);
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        with_sink_counters(&mut sink, &counters, |ctx| {
            op.on_control(
                ControlTuple::new(
                    KIND_SYNC_COMMAND,
                    99,
                    Arc::new(SyncCommand {
                        share_ports: vec![0],
                    }),
                ),
                ctx,
            );
        });
        assert!(sink.ports[0].is_empty());
        assert_eq!(counters.snapshot().faults[Fault::SyncSkips], 1);
    }

    #[test]
    fn heartbeats_on_monitor_port() {
        let mut op = StreamingPcaOp::new(3, cfg(), 0).with_heartbeats_every(50);
        let w = PlantedSubspace::new(D, 2, 0.05);
        let mut rng = StdRng::seed_from_u64(13);
        let sink = with_ctx(2, |ctx| {
            for seq in 0..120u64 {
                op.process(DataTuple::new(seq, w.sample(&mut rng)), ctx);
            }
        });
        // Beats at processed 1, 50 and 100.
        let beats: Vec<_> = sink.ports[0]
            .iter()
            .filter_map(|t| match t {
                Tuple::Control(c) if c.kind == KIND_HEARTBEAT => {
                    Some(*c.payload_as::<Heartbeat>().unwrap())
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            beats,
            vec![
                Heartbeat {
                    engine: 3,
                    n_obs: 1
                },
                Heartbeat {
                    engine: 3,
                    n_obs: 50
                },
                Heartbeat {
                    engine: 3,
                    n_obs: 100
                },
            ]
        );
    }

    fn recovery_tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spca_pcaop_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn recover_rehydrates_bit_exactly_from_snapshot() {
        let dir = recovery_tmp("recover");
        std::fs::remove_dir_all(&dir).ok();
        let mut op = StreamingPcaOp::new(5, cfg(), 0).with_recovery(&dir, 100);
        feed(&mut op, 300, 14); // recovery snapshots at 100, 200, 300
        let before = op.state_handle().lock().full_eigensystem().unwrap().clone();

        // A replacement operator that made some divergent progress the
        // crash wiped out: recover() must discard it and restore the
        // snapshot state exactly.
        let mut crashed = StreamingPcaOp::new(5, cfg(), 0).with_recovery(&dir, 100);
        feed(&mut crashed, 37, 15);
        crashed.obs_since_sync = 37;
        assert!(crashed.recover(1));
        assert_eq!(crashed.processed, 300);
        assert_eq!(crashed.obs_since_sync, 0);
        assert!(crashed.last_peer.is_none());
        let after = crashed
            .state_handle()
            .lock()
            .full_eigensystem()
            .unwrap()
            .clone();
        assert_eig_bits_equal(&before, &after);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_without_snapshot_restarts_fresh() {
        let dir = recovery_tmp("fresh");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut op = StreamingPcaOp::new(6, cfg(), 0).with_recovery(&dir, 100);
        feed(&mut op, 80, 16); // crash before the first cadence tick
        assert!(op.recover(1), "missing snapshot means a fresh restart");
        assert_eq!(op.processed, 0);
        assert!(!op.state_handle().lock().is_initialized());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn universal_checkpoint_round_trips_state_and_counters_bit_exactly() {
        let mut op = StreamingPcaOp::new(4, cfg(), 1);
        feed(&mut op, 500, 18);
        op.obs_since_sync = 123;
        op.shares_sent = 2;
        let before = op.state_handle().lock().full_eigensystem().unwrap().clone();
        let bytes = Checkpoint::snapshot(&op);

        let mut fresh = StreamingPcaOp::new(4, cfg(), 1);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.processed, 500);
        assert_eq!(fresh.obs_since_sync, 123);
        assert_eq!(fresh.shares_sent, 2);
        assert!(fresh.last_peer.is_none());
        let after = fresh
            .state_handle()
            .lock()
            .full_eigensystem()
            .unwrap()
            .clone();
        assert_eig_bits_equal(&before, &after);
    }

    #[test]
    fn warmup_checkpoint_carries_counters_but_no_eigensystem() {
        let mut op = StreamingPcaOp::new(4, cfg(), 0);
        feed(&mut op, 5, 19); // still inside the init-20 warm-up
        let bytes = Checkpoint::snapshot(&op);
        let mut fresh = StreamingPcaOp::new(4, cfg(), 0);
        fresh.restore(&bytes).unwrap();
        assert_eq!(fresh.processed, 5);
        assert!(!fresh.state_handle().lock().is_initialized());
    }

    #[test]
    fn checkpoint_cadence_follows_recovery_cadence() {
        let dir = recovery_tmp("cadence");
        let op = StreamingPcaOp::new(8, cfg(), 0).with_recovery(&dir, 250);
        assert_eq!(op.checkpoint_every(), 250);
        let plain = StreamingPcaOp::new(8, cfg(), 0);
        assert_eq!(
            plain.checkpoint_every(),
            spca_streams::DEFAULT_CHECKPOINT_EVERY
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_without_recovery_dir_declines() {
        let mut op = StreamingPcaOp::new(7, cfg(), 0);
        feed(&mut op, 50, 17);
        assert!(!op.recover(1), "no recovery dir: decline and be finished");
    }
}
