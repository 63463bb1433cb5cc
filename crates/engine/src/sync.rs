//! The synchronization controller (§III-B, Fig. 3).
//!
//! "The synchronization control subsystem contains the C class generating
//! the sequence of output tuples with sender and receiver number. In our
//! basic case of circular synchronization, receiver number = sender number
//! + 1. When the largest sender number is reached … loops the cycle."
//!
//! The controller is a *source* operator: it produces one sync command per
//! drive, paced either internally (its own period) or by wiring a
//! [`spca_streams::ops::Throttle`] between the controller and the engines'
//! control ports, exactly as the paper uses the SPL `Throttle`. Output
//! port `i` connects to engine `i`'s control port; the command tells that
//! engine which of *its* peer-state ports to share on.

use crate::messages::{
    Heartbeat, PeerState, SyncCommand, KIND_HEARTBEAT, KIND_SNAPSHOT, KIND_SYNC_COMMAND,
};
use spca_streams::checkpoint::{decode_kv, encode_kv, kv_parse, kv_u64, Checkpoint};
use spca_streams::metrics::Fault;
use spca_streams::{ActiveSet, ControlTuple, DataTuple, OpContext, Operator, SourceState};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Synchronization topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStrategy {
    /// Circular pattern (Fig. 3): each tick, engine `cursor` sends its
    /// state to engine `cursor + 1 (mod n)`. "A simple circular
    /// synchronization pattern can achieve reasonable global solutions
    /// while minimizing the network traffic."
    Ring,
    /// Each tick, engine `cursor` broadcasts to every other engine.
    Broadcast,
    /// Engines are partitioned into groups of the given size; each tick,
    /// the cursor engine shares with its whole group.
    Groups(usize),
    /// No synchronization at all (ablation baseline).
    None,
}

impl SyncStrategy {
    /// The peer-state ports engine `sender` must be wired to, out of `n`
    /// engines: the application builder uses this to create exactly the
    /// edges each strategy needs, and the controller to index them.
    pub fn peers_of(&self, sender: usize, n: usize) -> Vec<usize> {
        match *self {
            SyncStrategy::Ring => {
                if n <= 1 {
                    Vec::new()
                } else {
                    vec![(sender + 1) % n]
                }
            }
            SyncStrategy::Broadcast => (0..n).filter(|&j| j != sender).collect(),
            SyncStrategy::Groups(g) => {
                let g = g.max(1);
                let group = sender / g;
                (group * g..((group + 1) * g).min(n))
                    .filter(|&j| j != sender)
                    .collect()
            }
            SyncStrategy::None => Vec::new(),
        }
    }
}

/// Liveness tracking for failure-aware synchronization: who has been
/// heard from (heartbeats or snapshots on the controller's control input)
/// and how recently.
struct Liveness {
    /// An engine is considered dead once silent for longer than this.
    timeout: Duration,
    /// Engines that have *never* spoken get this long after the first
    /// drive before being declared dead (startup grace).
    grace: Duration,
    /// Set on the first drive; anchors the startup grace window.
    started: Option<Instant>,
    /// Last time each engine was heard from.
    heard: Vec<Option<Instant>>,
}

/// The controller operator. Drives one command per period, addressed to a
/// rotating sender.
///
/// With [`SyncController::with_liveness`] the controller becomes
/// failure-aware: engines report liveness (heartbeats / snapshots routed
/// to the controller's control port), dead or lagging engines are skipped
/// as senders and filtered out as receivers, and a ring is re-closed
/// around the gap. Liveness mode assumes *full-mesh* peer wiring (every
/// engine has a peer-state port to every other engine, in ascending
/// engine order), because the surviving receiver set is not known until
/// command time.
pub struct SyncController {
    strategy: SyncStrategy,
    n_engines: usize,
    period: Duration,
    cursor: usize,
    last: Option<Instant>,
    liveness: Option<Liveness>,
    /// Elastic membership: when set, the controller reconciles its ring
    /// against the shared active count on every drive — admitting engines
    /// the autoscaler activated and retiring ones it shut down.
    membership: Option<Arc<ActiveSet>>,
    /// Commands issued so far.
    pub issued: u64,
    /// Ticks where the rotating sender was skipped as dead, plus ticks
    /// where a live sender had no live receiver left.
    pub skipped_dead: u64,
    /// Malformed or foreign control tuples ignored instead of acted on: a
    /// liveness-bearing kind whose payload fails the typed downcast, whose
    /// payload contradicts its `sender` header, or whose sender is out of
    /// range. The controller must never panic on junk from the mesh — a
    /// poisoned control tuple would otherwise kill the whole sync loop.
    pub ignored_control: u64,
}

impl SyncController {
    /// A controller over `n_engines` engines firing every `period`.
    pub fn new(strategy: SyncStrategy, n_engines: usize, period: Duration) -> Self {
        SyncController {
            strategy,
            n_engines,
            period,
            cursor: 0,
            last: None,
            liveness: None,
            membership: None,
            issued: 0,
            skipped_dead: 0,
            ignored_control: 0,
        }
    }

    /// Enables failure-aware mode: an engine silent for `timeout` is
    /// treated as dead (never-heard engines get `grace` from the first
    /// drive). Requires full-mesh peer wiring (see the type docs);
    /// `crate::build` does this automatically when
    /// `AppConfig::failure_aware_sync` is set.
    pub fn with_liveness(mut self, timeout: Duration, grace: Duration) -> Self {
        self.liveness = Some(Liveness {
            timeout,
            grace,
            started: None,
            heard: vec![None; self.n_engines],
        });
        self
    }

    /// Tracks the autoscaler's shared active-engine count: on every drive
    /// the controller grows or shrinks its ring (and liveness table) to
    /// match `active.active()`. Requires full-mesh peer wiring over the
    /// *provisioned* fleet, exactly like liveness mode — the port map
    /// (`j` for `j < sender`, else `j - 1`) is membership-independent
    /// there, so admitted engines need no rewiring.
    pub fn with_membership(mut self, active: Arc<ActiveSet>) -> Self {
        self.membership = Some(active);
        self
    }

    /// Grows the ring by one engine (the next provisioned index). The
    /// liveness table grows with it, and the newcomer is stamped as
    /// freshly heard so it gets one full timeout to start heartbeating
    /// before being skipped as dead — the moral equivalent of the startup
    /// grace, re-granted at admission.
    pub fn admit_engine(&mut self) {
        self.n_engines += 1;
        if let Some(lv) = self.liveness.as_mut() {
            lv.heard.push(Some(Instant::now()));
            debug_assert_eq!(lv.heard.len(), self.n_engines);
        }
    }

    /// Shrinks the ring by one engine (the highest index — membership is
    /// a prefix). The liveness table shrinks with it and the rotation
    /// cursor is re-clamped so it keeps visiting every remaining engine.
    /// Saturates at one engine.
    pub fn retire_engine(&mut self) {
        if self.n_engines <= 1 {
            return;
        }
        self.n_engines -= 1;
        if let Some(lv) = self.liveness.as_mut() {
            lv.heard.truncate(self.n_engines);
        }
        self.cursor %= self.n_engines;
    }

    /// Reconciles the ring with the shared membership handle, counting
    /// each admission/retirement as a scale event in the run report.
    fn reconcile_membership(&mut self, ctx: &mut OpContext<'_>) {
        let Some(target) = self.membership.as_ref().map(|m| m.active()) else {
            return;
        };
        while self.n_engines < target {
            self.admit_engine();
            ctx.count(Fault::ScaleOuts);
        }
        while self.n_engines > target && self.n_engines > 1 {
            self.retire_engine();
            ctx.count(Fault::ScaleIns);
        }
    }

    /// Whether engine `i` currently counts as alive.
    fn alive(&self, i: usize) -> bool {
        match &self.liveness {
            None => true,
            Some(lv) => match lv.heard[i] {
                Some(t) => t.elapsed() < lv.timeout,
                None => lv.started.is_none_or(|s| s.elapsed() < lv.grace),
            },
        }
    }

    /// The engines `sender` should share with right now. Without liveness
    /// this is exactly the strategy's peer set; with it, dead receivers
    /// are dropped and a ring walks forward to the next live engine so
    /// the cycle stays closed around a gap.
    fn receivers_of(&self, sender: usize) -> Vec<usize> {
        if self.liveness.is_none() {
            return self.strategy.peers_of(sender, self.n_engines);
        }
        match self.strategy {
            SyncStrategy::Ring => {
                for step in 1..self.n_engines {
                    let j = (sender + step) % self.n_engines;
                    if self.alive(j) {
                        return vec![j];
                    }
                }
                Vec::new()
            }
            _ => self
                .strategy
                .peers_of(sender, self.n_engines)
                .into_iter()
                .filter(|&j| self.alive(j))
                .collect(),
        }
    }

    /// The command that will be sent to `sender`.
    fn command_for(&self, sender: usize) -> SyncCommand {
        let share_ports = if self.liveness.is_some() {
            // Full-mesh wiring: engine `sender`'s peer port for engine `j`
            // is `j` for j < sender and `j - 1` above (ascending order,
            // self omitted).
            self.receivers_of(sender)
                .into_iter()
                .map(|j| if j < sender { j } else { j - 1 })
                .collect()
        } else {
            // Legacy wiring: exactly the strategy's peers, in order.
            (0..self.strategy.peers_of(sender, self.n_engines).len()).collect()
        };
        SyncCommand { share_ports }
    }
}

impl Operator for SyncController {
    fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}

    fn on_control(&mut self, t: ControlTuple, _ctx: &mut OpContext<'_>) {
        if self.liveness.is_none() {
            return;
        }
        // Validate before trusting: a malformed or foreign control tuple
        // (wrong payload type, payload/header sender mismatch, out-of-range
        // sender) is *ignored with a counter*, never unwrapped — one junk
        // tuple on the mesh must not kill the sync loop or let a spoofed
        // header keep a dead engine "alive".
        let claimed = match t.kind {
            KIND_HEARTBEAT => t.payload_as::<Heartbeat>().map(|h| h.engine),
            KIND_SNAPSHOT => t.payload_as::<PeerState>().map(|s| s.engine),
            _ => return, // not a liveness-bearing kind; none of our business
        };
        let lv = self.liveness.as_mut().expect("checked above");
        match claimed {
            Some(engine) if engine == t.sender && (engine as usize) < lv.heard.len() => {
                lv.heard[engine as usize] = Some(Instant::now());
            }
            _ => self.ignored_control += 1,
        }
    }

    fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
        if matches!(self.strategy, SyncStrategy::None) {
            return SourceState::Done;
        }
        self.reconcile_membership(ctx);
        if self.n_engines <= 1 {
            // With elastic membership a one-engine fleet can grow back:
            // stay scheduled and idle instead of finishing the controller.
            return if self.membership.is_some() {
                SourceState::Idle
            } else {
                SourceState::Done
            };
        }
        if let Some(lv) = &mut self.liveness {
            lv.started.get_or_insert_with(Instant::now);
        }
        if let Some(last) = self.last {
            if last.elapsed() < self.period {
                return SourceState::Idle;
            }
        }
        self.last = Some(Instant::now());
        // One command per tick; with liveness on, dead senders are skipped
        // within the tick so a single gap cannot stall the whole rotation.
        for _ in 0..self.n_engines {
            let sender = self.cursor;
            self.cursor = (self.cursor + 1) % self.n_engines;
            if !self.alive(sender) {
                self.skipped_dead += 1;
                ctx.count(Fault::SyncSkips);
                continue;
            }
            let cmd = self.command_for(sender);
            if cmd.share_ports.is_empty() {
                if self.liveness.is_some() {
                    // A live sender with nobody live to talk to is still a
                    // skipped exchange — make it visible in the report.
                    self.skipped_dead += 1;
                    ctx.count(Fault::SyncSkips);
                }
                return SourceState::Idle;
            }
            ctx.emit_control(
                sender,
                ControlTuple::new(KIND_SYNC_COMMAND, sender as u32, Arc::new(cmd)),
            );
            self.issued += 1;
            return SourceState::Emitted;
        }
        SourceState::Idle
    }

    fn checkpoint(&mut self) -> Option<&mut dyn Checkpoint> {
        Some(self)
    }
}

/// The controller's durable state is its rotation cursor and the exchange
/// counters. Wall-clock anchors (`last`, liveness timestamps) deliberately
/// do not survive: after a restart the pacing timer re-arms and every
/// engine gets a fresh startup grace window, so a controller that was down
/// for longer than the liveness timeout does not wrongly declare the whole
/// fleet dead on its first post-restart drive.
impl Checkpoint for SyncController {
    fn snapshot(&self) -> Vec<u8> {
        encode_kv(&[
            ("cursor", self.cursor.to_string()),
            ("issued", self.issued.to_string()),
            ("skipped_dead", self.skipped_dead.to_string()),
            ("ignored_control", self.ignored_control.to_string()),
        ])
    }

    fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let kv = decode_kv(bytes)?;
        self.cursor = kv_parse(&kv, "cursor")?;
        self.issued = kv_u64(&kv, "issued")?;
        self.skipped_dead = kv_u64(&kv, "skipped_dead")?;
        self.ignored_control = kv_u64(&kv, "ignored_control")?;
        self.cursor %= self.n_engines.max(1);
        self.last = None;
        if let Some(lv) = self.liveness.as_mut() {
            lv.started = None;
            lv.heard = vec![None; self.n_engines];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spca_streams::operator::testing::with_ctx;
    use spca_streams::Tuple;

    #[test]
    fn ring_peers_follow_circle() {
        let s = SyncStrategy::Ring;
        assert_eq!(s.peers_of(0, 4), vec![1]);
        assert_eq!(s.peers_of(3, 4), vec![0]);
        assert!(s.peers_of(0, 1).is_empty());
    }

    #[test]
    fn broadcast_peers_are_everyone_else() {
        let s = SyncStrategy::Broadcast;
        assert_eq!(s.peers_of(1, 4), vec![0, 2, 3]);
    }

    #[test]
    fn groups_partition_correctly() {
        let s = SyncStrategy::Groups(2);
        assert_eq!(s.peers_of(0, 6), vec![1]);
        assert_eq!(s.peers_of(1, 6), vec![0]);
        assert_eq!(s.peers_of(4, 6), vec![5]);
        // Trailing partial group.
        let s3 = SyncStrategy::Groups(4);
        assert_eq!(s3.peers_of(5, 6), vec![4]);
    }

    #[test]
    fn controller_rotates_senders() {
        let mut c = SyncController::new(SyncStrategy::Ring, 3, Duration::from_millis(1));
        let sink = with_ctx(3, |ctx| {
            for _ in 0..3 {
                // Wait out the period between drives.
                while c.drive(ctx) == SourceState::Idle {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        });
        // One command per engine port, in rotation.
        for (port, q) in sink.ports.iter().enumerate() {
            assert_eq!(q.len(), 1, "port {port} got {} commands", q.len());
            match &q[0] {
                Tuple::Control(c) => {
                    assert_eq!(c.kind, KIND_SYNC_COMMAND);
                    assert_eq!(c.sender as usize, port);
                    let cmd = c.payload_as::<SyncCommand>().unwrap();
                    assert_eq!(cmd.share_ports, vec![0]); // ring: one peer port
                }
                other => panic!("expected control, got {other:?}"),
            }
        }
        assert_eq!(c.issued, 3);
    }

    #[test]
    fn none_strategy_finishes_immediately() {
        let mut c = SyncController::new(SyncStrategy::None, 4, Duration::from_millis(1));
        with_ctx(4, |ctx| {
            assert_eq!(c.drive(ctx), SourceState::Done);
        });
    }

    #[test]
    fn single_engine_needs_no_sync() {
        let mut c = SyncController::new(SyncStrategy::Ring, 1, Duration::from_millis(1));
        with_ctx(1, |ctx| {
            assert_eq!(c.drive(ctx), SourceState::Done);
        });
    }

    #[test]
    fn broadcast_command_lists_all_ports() {
        let mut c = SyncController::new(SyncStrategy::Broadcast, 4, Duration::from_micros(1));
        let sink = with_ctx(4, |ctx| while c.drive(ctx) == SourceState::Idle {});
        match &sink.ports[0][0] {
            Tuple::Control(ct) => {
                let cmd = ct.payload_as::<SyncCommand>().unwrap();
                assert_eq!(cmd.share_ports, vec![0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    // ---- failure-aware mode ----

    fn beat(c: &mut SyncController, engine: u32) {
        with_ctx(0, |ctx| {
            c.on_control(
                ControlTuple::new(
                    KIND_HEARTBEAT,
                    engine,
                    Arc::new(Heartbeat { engine, n_obs: 1 }),
                ),
                ctx,
            );
        });
    }

    fn shared_ports(
        sink: &spca_streams::operator::testing::CaptureSink,
        port: usize,
    ) -> Vec<usize> {
        match &sink.ports[port][0] {
            Tuple::Control(ct) => ct.payload_as::<SyncCommand>().unwrap().share_ports.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn liveness_recloses_ring_around_dead_engine() {
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::{with_sink_counters, CaptureSink};
        let mut c = SyncController::new(SyncStrategy::Ring, 4, Duration::from_millis(1))
            .with_liveness(Duration::from_secs(60), Duration::ZERO);
        for e in [0u32, 2, 3] {
            beat(&mut c, e); // engine 1 stays silent → dead past the grace
        }
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(4);
        with_sink_counters(&mut sink, &counters, |ctx| {
            let mut emitted = 0;
            while emitted < 3 {
                match c.drive(ctx) {
                    SourceState::Emitted => emitted += 1,
                    _ => std::thread::sleep(Duration::from_micros(200)),
                }
            }
        });
        // Rotation 0 → (1 skipped dead) → 2 → 3.
        assert_eq!(c.skipped_dead, 1);
        assert_eq!(counters.snapshot().faults[Fault::SyncSkips], 1);
        assert!(sink.ports[1].is_empty(), "dead engine must get no commands");
        // Full-mesh port map: engine 0's port for peer 2 is 1; engine 2's
        // for peer 3 is 2; engine 3's for peer 0 is 0. The ring is closed
        // around the dead engine, not broken at it.
        assert_eq!(
            shared_ports(&sink, 0),
            vec![1],
            "0 shares with 2, not dead 1"
        );
        assert_eq!(shared_ports(&sink, 2), vec![2], "2 shares with 3");
        assert_eq!(shared_ports(&sink, 3), vec![0], "3 closes the cycle at 0");
    }

    #[test]
    fn restarted_engine_is_readmitted_after_heartbeat() {
        let mut c = SyncController::new(SyncStrategy::Ring, 2, Duration::from_micros(10))
            .with_liveness(Duration::from_secs(60), Duration::ZERO);
        beat(&mut c, 0);
        with_ctx(2, |ctx| {
            for _ in 0..20 {
                c.drive(ctx);
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        assert_eq!(c.issued, 0, "no exchange possible with one live engine");
        assert!(c.skipped_dead > 0);
        beat(&mut c, 1); // the restarted engine announces itself
        let sink = with_ctx(2, |ctx| {
            while c.drive(ctx) != SourceState::Emitted {
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        assert_eq!(c.issued, 1);
        assert_eq!(
            sink.ports.iter().map(|p| p.len()).sum::<usize>(),
            1,
            "exactly one command once both engines are live"
        );
    }

    #[test]
    fn broadcast_receivers_filtered_to_live_engines() {
        let mut c = SyncController::new(SyncStrategy::Broadcast, 4, Duration::from_micros(10))
            .with_liveness(Duration::from_secs(60), Duration::ZERO);
        for e in [0u32, 1, 3] {
            beat(&mut c, e);
        }
        let sink = with_ctx(4, |ctx| {
            while c.drive(ctx) != SourceState::Emitted {
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        // Sender 0's full-mesh ports: 1 → 0, 2 → 1, 3 → 2; dead 2 dropped.
        assert_eq!(shared_ports(&sink, 0), vec![0, 2]);
    }

    #[test]
    fn junk_control_tuples_are_ignored_with_counter_not_a_panic() {
        let mut c = SyncController::new(SyncStrategy::Ring, 2, Duration::from_micros(10))
            .with_liveness(Duration::from_millis(50), Duration::ZERO);
        with_ctx(2, |ctx| {
            // Heartbeat kind carrying a completely foreign payload.
            c.on_control(
                ControlTuple::new(KIND_HEARTBEAT, 0, Arc::new("junk".to_string())),
                ctx,
            );
            // Snapshot kind with a unit payload (signal-only tuple).
            c.on_control(ControlTuple::signal(KIND_SNAPSHOT, 1), ctx);
            // Spoofed header: payload says engine 1, header says engine 0.
            c.on_control(
                ControlTuple::new(
                    KIND_HEARTBEAT,
                    0,
                    Arc::new(Heartbeat {
                        engine: 1,
                        n_obs: 1,
                    }),
                ),
                ctx,
            );
            // Out-of-range sender.
            c.on_control(
                ControlTuple::new(
                    KIND_HEARTBEAT,
                    9,
                    Arc::new(Heartbeat {
                        engine: 9,
                        n_obs: 1,
                    }),
                ),
                ctx,
            );
            // A kind the controller does not care about is not "junk".
            c.on_control(ControlTuple::signal(KIND_SYNC_COMMAND, 0), ctx);
        });
        assert_eq!(c.ignored_control, 4);
        // None of the junk registered liveness: both engines still unheard.
        let lv = c.liveness.as_ref().unwrap();
        assert!(lv.heard.iter().all(|h| h.is_none()));
        // A well-formed heartbeat still works.
        beat(&mut c, 0);
        assert!(c.liveness.as_ref().unwrap().heard[0].is_some());
        assert_eq!(c.ignored_control, 4);
    }

    #[test]
    fn controller_checkpoint_round_trips_cursor_but_resets_liveness() {
        let mut c = SyncController::new(SyncStrategy::Ring, 4, Duration::from_micros(1))
            .with_liveness(Duration::from_millis(50), Duration::ZERO);
        beat(&mut c, 0);
        c.cursor = 3;
        c.issued = 7;
        c.skipped_dead = 2;
        c.ignored_control = 1;
        let bytes = Checkpoint::snapshot(&c);
        let mut r = SyncController::new(SyncStrategy::Ring, 4, Duration::from_micros(1))
            .with_liveness(Duration::from_millis(50), Duration::ZERO);
        r.restore(&bytes).unwrap();
        assert_eq!(r.cursor, 3);
        assert_eq!(r.issued, 7);
        assert_eq!(r.skipped_dead, 2);
        assert_eq!(r.ignored_control, 1);
        // Liveness starts over: no engine is condemned by pre-crash silence.
        let lv = r.liveness.as_ref().unwrap();
        assert!(lv.started.is_none());
        assert!(lv.heard.iter().all(|h| h.is_none()));
    }

    // ---- elastic membership (admit/retire) ----

    /// Collects one full rotation of sync commands and returns the set of
    /// sender ports that emitted.
    fn senders_in_rotation(c: &mut SyncController, n_ports: usize, rounds: usize) -> Vec<usize> {
        let sink = with_ctx(n_ports, |ctx| {
            let mut emitted = 0;
            while emitted < rounds {
                match c.drive(ctx) {
                    SourceState::Emitted => emitted += 1,
                    _ => std::thread::sleep(Duration::from_micros(50)),
                }
            }
        });
        (0..n_ports)
            .filter(|&p| !sink.ports[p].is_empty())
            .collect()
    }

    #[test]
    fn ring_grows_then_shrinks_without_losing_the_cursor() {
        // Regression: liveness tables and the rotation cursor used to be
        // sized once at construction, so growing the fleet indexed out of
        // bounds and shrinking could leave the cursor past the end.
        let mut c = SyncController::new(SyncStrategy::Ring, 2, Duration::from_micros(10))
            .with_liveness(Duration::from_secs(60), Duration::from_secs(60));
        // Grow 2 -> 4: both newcomers must join the rotation and the
        // liveness table must cover them (no out-of-bounds panic when they
        // heartbeat or when the rotation reaches them).
        c.admit_engine();
        c.admit_engine();
        beat(&mut c, 2);
        beat(&mut c, 3);
        let senders = senders_in_rotation(&mut c, 4, 4);
        assert_eq!(
            senders,
            vec![0, 1, 2, 3],
            "rotation must cover the grown ring"
        );

        // Shrink 4 -> 3 with the cursor parked on the retired engine.
        c.cursor = 3;
        c.retire_engine();
        assert!(c.cursor < 3, "cursor must be re-clamped after retirement");
        let senders = senders_in_rotation(&mut c, 4, 3);
        assert_eq!(
            senders,
            vec![0, 1, 2],
            "retired engine must leave the rotation"
        );
        // Commands never address the retired engine as a receiver either.
        let sink = with_ctx(4, |ctx| {
            let mut emitted = 0;
            while emitted < 6 {
                match c.drive(ctx) {
                    SourceState::Emitted => emitted += 1,
                    _ => std::thread::sleep(Duration::from_micros(50)),
                }
            }
        });
        for port in 0..3 {
            for t in &sink.ports[port] {
                let Tuple::Control(ct) = t else { continue };
                let cmd = ct.payload_as::<SyncCommand>().unwrap();
                // Sender `port`'s peer port for engine 3 is 2 in full-mesh
                // order (3 > sender for every remaining sender).
                assert!(
                    !cmd.share_ports.contains(&2),
                    "sender {port} still shares with retired engine: {cmd:?}"
                );
            }
        }
        assert!(sink.ports[3].is_empty(), "retired engine got a command");
    }

    #[test]
    fn retirement_saturates_at_one_engine() {
        let mut c = SyncController::new(SyncStrategy::Ring, 2, Duration::from_micros(10));
        c.retire_engine();
        c.retire_engine();
        c.retire_engine();
        // Still valid: one engine, cursor 0, and drive finishes cleanly
        // (no membership handle, so a 1-engine ring is done).
        with_ctx(2, |ctx| {
            assert_eq!(c.drive(ctx), SourceState::Done);
        });
    }

    #[test]
    fn membership_handle_drives_admission_and_retirement() {
        use spca_streams::metrics::OpCounters;
        use spca_streams::operator::testing::{with_sink_counters, CaptureSink};
        let active = ActiveSet::new(1, 3);
        let mut c = SyncController::new(SyncStrategy::Ring, 1, Duration::from_micros(10))
            .with_liveness(Duration::from_secs(60), Duration::from_secs(60))
            .with_membership(Arc::clone(&active));

        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(3);
        with_sink_counters(&mut sink, &counters, |ctx| {
            // One active engine: idle (not Done — the fleet can grow).
            assert_eq!(c.drive(ctx), SourceState::Idle);
            // Autoscaler admits two engines; the controller reconciles on
            // the next drive and the ring starts rotating over all three.
            active.set_active(3);
            let mut emitted = 0;
            while emitted < 3 {
                match c.drive(ctx) {
                    SourceState::Emitted => emitted += 1,
                    _ => std::thread::sleep(Duration::from_micros(50)),
                }
            }
        });
        let snap = counters.snapshot();
        assert_eq!(
            snap.faults[Fault::ScaleOuts],
            2,
            "two admissions = two scale-out events"
        );
        assert_eq!(snap.faults[Fault::ScaleIns], 0);
        assert!(
            (0..3).all(|p| !sink.ports[p].is_empty()),
            "all three rotate"
        );

        // Scale back in to one engine.
        let mut sink2 = CaptureSink::new(3);
        active.set_active(1);
        with_sink_counters(&mut sink2, &counters, |ctx| {
            assert_eq!(c.drive(ctx), SourceState::Idle);
        });
        let snap = counters.snapshot();
        assert_eq!(
            snap.faults[Fault::ScaleIns],
            2,
            "two retirements = two scale-in events"
        );
    }

    #[test]
    fn startup_grace_treats_silent_engines_as_alive() {
        let mut c = SyncController::new(SyncStrategy::Ring, 3, Duration::from_micros(10))
            .with_liveness(Duration::from_millis(100), Duration::from_secs(60));
        let sink = with_ctx(3, |ctx| {
            while c.drive(ctx) != SourceState::Emitted {
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        assert_eq!(c.skipped_dead, 0, "grace period: nobody is dead yet");
        assert_eq!(shared_ports(&sink, 0), vec![0]);
    }
}
