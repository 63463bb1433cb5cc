//! The threaded execution engine.
//!
//! One OS thread per processing element (PE): operators fused into a PE
//! dispatch tuples to each other through an in-memory queue (the analogue
//! of InfoSphere passing "data by pointer as a variable in memory"), while
//! cross-PE edges are bounded crossbeam channels that provide backpressure
//! and traffic accounting. Sources are driven cooperatively by their PE's
//! thread; end-of-stream punctuation flows edge-by-edge, so a PE (and the
//! whole run) winds down exactly when all upstream work is drained.
//!
//! ## Batched transport
//!
//! Cross-PE channels carry [`Frame`]s — pooled `Vec<Tuple>` batches — so
//! one channel wake-up amortizes over up to `GraphBuilder::with_batch_size`
//! tuples. Each edge flushes adaptively (threshold reached, downstream
//! idle, scheduler about to block) and *immediately* for control tuples and
//! punctuation, so synchronization latency is never batched away; see
//! `RemoteEdge` for the exact policy. Delivery order per edge is
//! unchanged from per-tuple transport (frames preserve FIFO), and link
//! metrics stay tuple-denominated.
//!
//! ## Supervision
//!
//! Two nested layers, mirroring InfoSphere's operator/PE split:
//!
//! **Operator-level.** Callbacks on the tuple path (`process` /
//! `on_control`) run under a supervisor: a panic is isolated with
//! `catch_unwind`, the operator instance survives (it is borrowed, not
//! moved, into the guarded call), and after a capped exponential backoff
//! the supervisor asks it to [`Operator::recover`]. A recovered operator
//! resumes where it left off — the in-flight data tuple is redelivered
//! exactly once — while an unrecoverable one is finished so its
//! end-of-stream still propagates and the rest of the graph drains
//! normally. Restart counts surface as [`Fault::Restarts`] in
//! [`OpSnapshot`]/[`RunReport`].
//!
//! **PE-level.** A panic that escapes the operator layer — a source's
//! `drive` blowing up, or an injected `kill-pe` fault — unwinds the PE's
//! scheduler loop itself. The PE's channels, in-flight tuples and operator
//! slots live *outside* that unwind (in `PeRuntime`, owned across the
//! `catch_unwind`), so the supervisor tears the PE down and rebuilds it in
//! place: every [`crate::checkpoint::Checkpoint`]-able operator is
//! rehydrated from the PE's snapshot manifest (written periodically at the
//! operators' cadence, and — for a clean injected kill — once more at
//! teardown so recovery round-trips consistent state through disk), cross-PE
//! frame channels reconnect untouched (no tuple is lost or duplicated: the
//! pending queue and edge buffers survive in `PeRuntime`), and the loop
//! re-enters. PE restarts count as [`Fault::PeRestarts`] on every member operator
//! and are bounded by the same [`RestartPolicy`] as operator restarts.
//!
//! Deterministic faults (panic/kill-pe/poison/stall on operators,
//! drop/dup/delay on cross-PE links) are injected from the builder's
//! [`crate::fault::FaultPlan`].
//!
//! ## Shutdown semantics
//!
//! * A source finishes when its `drive` returns `Done`, or after
//!   [`RunningEngine::stop`] requests a cooperative stop.
//! * An operator with data inputs finishes when end-of-stream has arrived
//!   on every data edge; control edges never gate completion (late control
//!   tuples are dropped), which keeps control-port cycles — like the PCA
//!   ring-synchronization mesh — deadlock-free.
//! * An operator with only control inputs finishes when those edges close.
//! * `on_finish` runs before the operator's own end-of-stream propagates,
//!   so terminal operators can emit final results.

use crate::checkpoint::{self, PeCheckpointer};
use crate::fault::{FaultAction, FaultTarget, RestartPolicy};
use crate::graph::{GraphBuilder, LinkKind, PortKind};
use crate::metrics::{
    Fault, FaultCounts, LinkCounters, LinkSnapshot, MetricsRegistry, OpCounters, OpSnapshot,
};
use crate::netio::{AckMode, NetTransport};
use crate::operator::{EmitSink, OpContext, Operator, SourceState};
use crate::tuple::{DataTuple, Frame, FramePool, Punctuation, Tuple};
use crossbeam::channel::{bounded, Receiver, Select, Sender};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuples routed per live channel in one bounded sweep (after a select
/// hit, or per scheduler iteration while sources are still live). Bounded
/// so one hot channel cannot starve its siblings or a co-resident source.
const SWEEP_TUPLES: usize = 256;

/// Spare frame buffers retained per edge pool.
const POOL_DEPTH: usize = 8;

/// One fault from the plan, armed against its trigger point. Each fault
/// fires at most once so a plan stays a finite, reproducible script.
struct InjectedFault {
    action: FaultAction,
    fired: bool,
}

impl InjectedFault {
    fn arm(actions: Vec<FaultAction>) -> Vec<InjectedFault> {
        actions
            .into_iter()
            .map(|action| InjectedFault {
                action,
                fired: false,
            })
            .collect()
    }
}

/// Sender-side state of one cross-PE edge: tuples accumulate in `buf` and
/// travel as a [`Frame`] per channel message.
///
/// Flush policy (adaptive):
/// * buffer reached the configured batch size, or
/// * the tuple is control/punctuation — sync signals and end-of-stream must
///   never wait behind a partial data batch (§III-C latency), or
/// * the downstream channel is empty and at least a quarter batch has
///   accumulated — the consumer is caught up, so holding a decent partial
///   frame back would only add latency, but flushing on *every* tuple to a
///   drained consumer would degenerate to one-tuple frames and forfeit the
///   amortization batching exists for.
///
/// The PE scheduler additionally flushes every edge whenever it is about to
/// idle or block, so no tuple is ever stranded in a buffer.
struct RemoteEdge {
    tx: Sender<Frame>,
    counters: Arc<LinkCounters>,
    /// Modeled per-message sender-side overhead (network links).
    delay: Option<Duration>,
    /// Flush threshold (tuples per frame); 1 = legacy per-tuple transport.
    batch: usize,
    buf: Vec<Tuple>,
    pool: Arc<FramePool>,
    /// Tuples sent but not yet routed by the consumer (backlog accounting).
    inflight: Arc<AtomicUsize>,
    /// Armed link faults (drop/dup/delay) from the fault plan; empty in
    /// normal runs.
    faults: Vec<InjectedFault>,
    /// 1-based count of data tuples pushed onto this edge, for fault
    /// trigger points. Only maintained while faults are armed.
    fault_data_seen: u64,
}

impl RemoteEdge {
    fn push(&mut self, t: Tuple) {
        // Link faults model the network: they apply to data tuples only
        // (corrupting punctuation would deadlock the graph, not test
        // recovery) and each fires exactly once at its 1-based index.
        if !self.faults.is_empty() {
            if let Tuple::Data(_) = &t {
                self.fault_data_seen += 1;
                let seen = self.fault_data_seen;
                let mut copies = 1usize;
                let mut hold_ms = None;
                for f in self.faults.iter_mut() {
                    if f.fired {
                        continue;
                    }
                    match f.action {
                        FaultAction::Drop(n) if n == seen => {
                            f.fired = true;
                            copies = 0;
                        }
                        FaultAction::Duplicate(n) if n == seen => {
                            f.fired = true;
                            copies = 2;
                        }
                        FaultAction::Delay { at, ms } if at == seen => {
                            f.fired = true;
                            hold_ms = Some(ms);
                        }
                        _ => {}
                    }
                }
                if let Some(ms) = hold_ms {
                    // Holding the sender delays this tuple and everything
                    // behind it — late but still in order, like a stalled
                    // network queue.
                    std::thread::sleep(Duration::from_millis(ms));
                }
                match copies {
                    0 => return,
                    2 => {
                        self.push_tuple(t.clone());
                        self.push_tuple(t);
                        return;
                    }
                    _ => {}
                }
            }
        }
        self.push_tuple(t);
    }

    fn push_tuple(&mut self, t: Tuple) {
        let urgent = !matches!(t, Tuple::Data(_));
        self.buf.push(t);
        // Adaptive flush: control tuples and punctuation go out at once; a
        // full buffer goes out; and a starved consumer (empty channel) gets
        // an early partial frame once a quarter batch has accumulated —
        // without the fill floor, a split alternating between consumers
        // that keep their channels drained would degenerate to one-tuple
        // frames and pay the per-send synchronization batching exists to
        // amortize. Sub-quarter buffers are bounded in latency by the
        // scheduler, which flushes every edge before blocking or idling.
        if urgent
            || self.buf.len() >= self.batch
            || (self.tx.is_empty() && self.buf.len() * 4 >= self.batch)
        {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let tuples = std::mem::replace(&mut self.buf, self.pool.take(self.batch));
        if let Some(d) = self.delay {
            // The modeled overhead is charged once per message, mirroring
            // the cluster cost model's per-message send/receive terms: on a
            // real link every send pays a fixed syscall/framing/wakeup cost
            // regardless of payload, and amortizing it is precisely what
            // frame batching buys (§IV). A calibrated busy-wait is used
            // instead of `sleep` because µs-scale sleeps are dominated by
            // timer slack, which would swamp the model.
            let until = Instant::now() + d;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        let n = tuples.len() as u64;
        let frame = Frame::from_vec(tuples);
        let bytes = frame.wire_bytes();
        self.inflight.fetch_add(n as usize, Ordering::Relaxed);
        if self.tx.send(frame).is_ok() {
            // Per-tuple accounting is preserved inside frames so LinkReport
            // is batch-invariant.
            self.counters.add_many(n, bytes);
        } else {
            // A closed receiver means the consumer already finished; the
            // frame is intentionally dropped.
            self.inflight.fetch_sub(n as usize, Ordering::Relaxed);
        }
    }

    /// Tuples not yet routed by the consumer: local buffer + in flight.
    fn depth(&self) -> usize {
        self.buf.len() + self.inflight.load(Ordering::Relaxed)
    }
}

/// Where an emission goes.
enum Target {
    /// Same-PE operator: queued in the PE's pending deque.
    Local { op: usize, port: PortKind },
    /// Cross-PE edge with frame batching.
    Remote(RemoteEdge),
}

/// Receive-side state of one cross-PE edge. The receivers themselves live
/// in a separate `Vec` (`PeRuntime::rxs`) so a cached `Select` can keep
/// borrowing them while this metadata is updated.
///
/// `cur` holds the partially-consumed current frame *reversed*, so the next
/// tuple is an O(1) `pop`. Consuming frames through a cursor instead of
/// dispatching them wholesale lets the scheduler interleave channels at
/// tuple granularity — the same fairness the per-tuple select loop had —
/// while still paying channel synchronization only once per frame.
struct ChanMeta {
    to_local: usize,
    port: PortKind,
    got_eos: bool,
    alive: bool,
    /// Remaining tuples of the current frame, in reverse delivery order.
    cur: Vec<Tuple>,
    pool: Arc<FramePool>,
    inflight: Arc<AtomicUsize>,
    /// Tuples routed off this channel so far. For socket-backed channels
    /// this is the durable consumption watermark persisted as a
    /// `__netlink{id}` pseudo-part in the PE manifest.
    routed: u64,
    /// Socket-link bookkeeping when this channel's upstream runs in another
    /// process; `None` for ordinary in-process channels.
    net: Option<NetIn>,
}

/// Receiver-side counters shared with the [`NetTransport`] for one
/// socket-backed incoming channel.
struct NetIn {
    /// Global edge index — the wire link id and the `__netlink{id}` key.
    link_id: u64,
    /// Checkpoint-stable watermark: entries whose effects are durable on
    /// disk. The transport acknowledges up to this point when the PE
    /// checkpoints (AckMode::Stable); ignored in receipt-ack mode.
    stable: Arc<AtomicU64>,
    /// Entries the transport has pushed into the channel. Preset from the
    /// manifest on rehydrate so the RESUME handshake asks the sender to
    /// skip what this PE already consumed durably.
    delivered: Arc<AtomicU64>,
}

impl ChanMeta {
    /// Installs a freshly received frame as the current cursor.
    fn accept(&mut self, frame: Frame) {
        let Frame { mut tuples } = frame;
        self.inflight.fetch_sub(tuples.len(), Ordering::Relaxed);
        tuples.reverse();
        debug_assert!(self.cur.is_empty(), "frame accepted over unconsumed cursor");
        let spent = std::mem::replace(&mut self.cur, tuples);
        self.pool.put(spent);
    }
}

/// Outcome of asking a channel cursor for its next tuple.
enum Next {
    /// A tuple to route.
    Tuple(Tuple),
    /// Nothing buffered and nothing queued right now.
    Empty,
    /// The channel closed with no current tuple.
    Disconnected,
}

struct OpSlot {
    #[allow(dead_code)] // retained for debugging and future per-op reporting
    name: String,
    op: Option<Box<dyn Operator>>,
    counters: Arc<OpCounters>,
    out_ports: Vec<Vec<Target>>,
    is_source: bool,
    data_in_degree: usize,
    ctrl_in_degree: usize,
    eos_data: usize,
    eos_ctrl: usize,
    finished: bool,
    /// Armed operator faults (panic/poison/stall); empty in normal runs.
    faults: Vec<InjectedFault>,
    /// 1-based count of data tuples delivered, for fault trigger points.
    fault_data_seen: u64,
    /// Supervisor restart policy for this operator.
    policy: RestartPolicy,
    /// Restarts performed so far (compared against `policy.max_restarts`).
    restart_attempts: u64,
    /// Sequence number of the last redelivered tuple: a tuple whose retry
    /// panics again is a poison pill and is dropped, not redelivered
    /// forever.
    last_redelivered: Option<u64>,
}

/// Panic payload used to unwind a PE's scheduler loop on purpose. `clean`
/// means the unwind started between tuples with every operator box parked
/// in its slot (the injected `kill-pe` case), so the in-memory state is a
/// consistent set worth persisting before the rebuild.
struct PeKill {
    clean: bool,
}

/// Everything a PE owns that must survive a whole-PE restart. The
/// scheduler body (`run_pe_once`) only *borrows* this, so when a panic
/// unwinds the body, channel endpoints (senders live in `slots`' remote
/// targets, receivers in `rxs`), partially consumed frame cursors, the
/// in-PE pending queue, and the operator boxes themselves all survive for
/// the supervisor to rebuild around.
struct PeRuntime {
    slots: Vec<OpSlot>,
    /// Frame receivers, parallel to `metas`. Kept separate (and never
    /// mutated after construction) so the scheduler can cache a `Select`
    /// borrowing them across loop iterations.
    rxs: Vec<Receiver<Frame>>,
    metas: Vec<ChanMeta>,
    stop: Arc<AtomicBool>,
    /// In-PE dispatch queue. Owned here — not in the scheduler body — so
    /// tuples queued at the moment a PE dies are redelivered, not lost.
    pending: VecDeque<(usize, PortKind, Tuple)>,
    /// This PE's index in the graph's PE list (manifest identity).
    pe_index: usize,
    /// Bounds PE-level restarts (same policy as operator restarts).
    policy: RestartPolicy,
    /// Snapshot writer, when the graph has a checkpoint dir configured.
    checkpoint: Option<PeCheckpointer>,
    /// Whole-PE restarts performed so far.
    pe_restarts: u64,
    /// Sum of member `tuples_in` at the last periodic checkpoint.
    last_ckpt_total: u64,
    /// Consecutive periodic-checkpoint write failures. Each failure doubles
    /// the effective checkpoint window (capped), so a full disk is polled
    /// at a gentle rate instead of hammered every cadence; any success
    /// resets the backoff.
    ckpt_failures: u64,
    /// True once `on_start` hooks have run; a restarted PE must not re-run
    /// them (operators resume via `Checkpoint::restore`, not a fresh start).
    started: bool,
    /// Snapshot set recovered at startup (distributed rehydrate): operator
    /// state restored right after the `on_start` hooks of the first
    /// scheduler entry, so a respawned worker resumes where its manifest
    /// left off instead of reprocessing from scratch.
    rehydrate: Option<checkpoint::SnapshotSet>,
}

/// Traffic report for one cross-PE link.
#[derive(Debug, Clone)]
pub struct LinkReport {
    /// Producing operator's name.
    pub from: String,
    /// Consuming operator's name.
    pub to: String,
    /// Transfer counters.
    pub snapshot: LinkSnapshot,
}

impl LinkReport {
    /// Tuples transferred.
    pub fn tuples(&self) -> u64 {
        self.snapshot.tuples
    }

    /// Bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.snapshot.bytes
    }
}

/// Final report of a finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-operator name + counters, in graph insertion order.
    pub ops: Vec<(String, OpSnapshot)>,
    /// Per-cross-PE-link traffic, in edge insertion order.
    pub links: Vec<LinkReport>,
}

impl RunReport {
    /// Snapshot for the operator with the given name (first match).
    pub fn op(&self, name: &str) -> Option<&OpSnapshot> {
        self.ops.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Aggregate data tuples consumed by operators whose name starts with
    /// `prefix` — convenient for summing over parallel replicas.
    pub fn tuples_in_matching(&self, prefix: &str) -> u64 {
        self.ops
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, s)| s.tuples_in)
            .sum()
    }

    /// Fault counts summed over every operator — the totals the CLI fault
    /// summary prints and `/metrics` serves.
    pub fn faults(&self) -> FaultCounts {
        FaultCounts::sum(&self.ops)
    }

    /// `faults()[Fault::Restarts]`, kept by name for the benchmark harness.
    pub fn total_restarts(&self) -> u64 {
        self.faults()[Fault::Restarts]
    }

    /// `faults()[Fault::PeRestarts]`, kept by name for the benchmark harness.
    pub fn total_pe_restarts(&self) -> u64 {
        self.faults()[Fault::PeRestarts]
    }

    /// `faults()[Fault::SyncSkips]`, kept by name for the benchmark harness.
    pub fn total_sync_skips(&self) -> u64 {
        self.faults()[Fault::SyncSkips]
    }

    /// `faults()[Fault::CheckpointSkips]`, kept by name for the benchmark
    /// harness.
    pub fn total_checkpoint_skips(&self) -> u64 {
        self.faults()[Fault::CheckpointSkips]
    }
}

/// One process's share of a distributed run (see [`Engine::start_in_partition`]).
///
/// Every participating process builds the *identical* graph and names the
/// operators it owns; edges whose endpoints land in different processes are
/// carried by `net` as codec frames over TCP (keyed by the edge's global
/// index), edges between two foreign operators are skipped entirely, and
/// everything else is wired exactly as in a single-process run. Operator
/// fusion must respect the partition: two operators fused into one PE must
/// live in the same process.
pub struct NetPartition {
    /// Names of the operators this process runs. PE threads are spawned
    /// only for PEs whose members are all listed here.
    pub local_ops: HashSet<String>,
    /// The socket transport carrying boundary edges. Must be bound but not
    /// yet started; the engine registers its links and starts it.
    pub net: Arc<NetTransport>,
    /// Data-plane address of the peer process for each *outgoing* boundary
    /// edge, keyed by the edge's global index in graph insertion order.
    pub peers: HashMap<u64, SocketAddr>,
    /// Recover local PEs from their checkpoint manifests before running —
    /// the respawned-worker path. Requires a checkpoint dir on the builder.
    pub rehydrate: bool,
}

/// A running dataflow; obtain one via [`Engine::start`].
pub struct RunningEngine {
    handles: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    metrics: MetricsRegistry,
    op_names: Vec<String>,
    link_endpoints: Vec<(String, String)>,
    started: Instant,
    /// Socket transport for distributed runs; shut down after the local PEs
    /// drain (senders first flush + await acks for every queued frame).
    net: Option<Arc<NetTransport>>,
}

impl RunningEngine {
    /// Requests a cooperative stop: sources wind down, the pipeline drains.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Live operator snapshots (name, counters).
    pub fn op_snapshots(&self) -> Vec<(String, OpSnapshot)> {
        self.op_names
            .iter()
            .cloned()
            .zip(self.metrics.op_snapshots())
            .collect()
    }

    /// Live snapshot of the operator with the given name.
    pub fn op_snapshot(&self, name: &str) -> Option<OpSnapshot> {
        self.op_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.metrics.op_snapshots()[i])
    }

    /// Wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether every PE thread has exited (the pipeline has drained).
    /// Non-blocking; [`RunningEngine::join`] still collects the report.
    pub fn is_finished(&self) -> bool {
        self.handles.iter().all(|h| h.is_finished())
    }

    /// Waits for every PE thread and returns the final report.
    pub fn join(self) -> RunReport {
        for h in self.handles {
            h.join().expect("PE thread panicked");
        }
        // Transport shutdown comes after the PEs drain: senders hold their
        // retransmit queues until the peer acknowledges every frame, so a
        // worker's results are on the coordinator's side of the wire before
        // this returns.
        if let Some(net) = &self.net {
            net.shutdown();
        }
        let links = self
            .link_endpoints
            .into_iter()
            .zip(self.metrics.link_snapshots())
            .map(|((from, to), snapshot)| LinkReport { from, to, snapshot })
            .collect();
        RunReport {
            elapsed: self.started.elapsed(),
            ops: self
                .op_names
                .into_iter()
                .zip(self.metrics.op_snapshots())
                .collect(),
            links,
        }
    }
}

/// Engine entry points.
pub struct Engine;

impl Engine {
    /// Builds and launches the dataflow; returns a handle for live metrics
    /// and stopping.
    pub fn start(builder: GraphBuilder) -> RunningEngine {
        Engine::start_inner(builder, None)
    }

    /// Launches this process's share of a distributed dataflow.
    ///
    /// Every participating process builds the *identical* graph (same
    /// operators, same insertion order — edge indices are the wire link
    /// ids) and declares which operators it owns via the partition. PE
    /// threads are spawned only for local operators; edges crossing the
    /// process boundary travel as codec frames over the partition's
    /// [`NetTransport`] with exactly-once redelivery on reconnect.
    pub fn start_in_partition(builder: GraphBuilder, partition: NetPartition) -> RunningEngine {
        Engine::start_inner(builder, Some(partition))
    }

    fn start_inner(mut builder: GraphBuilder, partition: Option<NetPartition>) -> RunningEngine {
        builder.apply_placements();
        let (op_pe, pes) = builder.resolve_pes();
        let n_ops = builder.ops.len();
        let mut metrics = MetricsRegistry::default();
        let counters: Vec<Arc<OpCounters>> = (0..n_ops).map(|_| metrics.register_op()).collect();

        // Per-op output port count (max wired port + 1).
        let mut n_ports = vec![0usize; n_ops];
        for e in &builder.edges {
            n_ports[e.from] = n_ports[e.from].max(e.out_port + 1);
        }

        // local index of each op inside its PE
        let mut local_idx = vec![0usize; n_ops];
        for ops in &pes {
            for (li, &g) in ops.iter().enumerate() {
                local_idx[g] = li;
            }
        }

        // Build slots per PE.
        let op_names: Vec<String> = builder.ops.iter().map(|o| o.name.clone()).collect();

        // Which operators run in this process. Without a partition: all.
        let is_local: Vec<bool> = match &partition {
            Some(p) => op_names.iter().map(|n| p.local_ops.contains(n)).collect(),
            None => vec![true; n_ops],
        };
        if let Some(p) = &partition {
            for name in &p.local_ops {
                assert!(
                    op_names.iter().any(|n| n == name),
                    "partition names unknown operator '{name}'"
                );
            }
            // Fusion exchanges tuples by pointer inside one address space; a
            // PE must therefore live wholly in one process.
            for ops in &pes {
                assert!(
                    ops.iter().all(|&g| is_local[g]) || ops.iter().all(|&g| !is_local[g]),
                    "partition splits a fused PE across processes: {:?}",
                    ops.iter()
                        .map(|&g| op_names[g].as_str())
                        .collect::<Vec<_>>()
                );
            }
        }

        // Resolve the fault plan against the graph now, so a typo in a
        // fault spec fails the run loudly instead of injecting nothing.
        let plan = builder.fault_plan.take().unwrap_or_default();
        let policy = builder.restart_policy;
        for fault in &plan.faults {
            match &fault.target {
                FaultTarget::Op(name) => {
                    assert!(
                        op_names.iter().any(|n| n == name),
                        "fault plan targets unknown operator '{name}'"
                    );
                }
                FaultTarget::Link { from, to } => {
                    let e = builder
                        .edges
                        .iter()
                        .find(|e| op_names[e.from] == *from && op_names[e.to] == *to)
                        .unwrap_or_else(|| panic!("fault plan targets unknown link '{from}>{to}'"));
                    assert!(
                        op_pe[e.from] != op_pe[e.to],
                        "fault plan link '{from}>{to}' is fused (in-memory hand-off); \
                         link faults model the network and need a cross-PE edge"
                    );
                }
                // Storage and wire faults name fault domains, not graph
                // elements — nothing to resolve.
                FaultTarget::Storage(_) | FaultTarget::Wire => {}
            }
        }

        // The persistence backend: an explicit override wins, then a
        // fault-injecting backend when the plan carries io-* entries,
        // otherwise the real filesystem.
        let vfs: Arc<dyn crate::vfs::Vfs> = match builder.vfs.take() {
            Some(v) => v,
            None => match plan.io_spec() {
                Some(spec) => Arc::new(crate::vfs::FaultVfs::new(spec)),
                None => Arc::new(crate::vfs::RealVfs),
            },
        };

        let mut slots_per_pe: Vec<Vec<OpSlot>> = pes
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|&g| OpSlot {
                        name: op_names[g].clone(),
                        op: None, // installed below
                        counters: Arc::clone(&counters[g]),
                        out_ports: (0..n_ports[g]).map(|_| Vec::new()).collect(),
                        is_source: builder.ops[g].is_source,
                        data_in_degree: 0,
                        ctrl_in_degree: 0,
                        eos_data: 0,
                        eos_ctrl: 0,
                        finished: false,
                        faults: InjectedFault::arm(plan.op_faults(&op_names[g])),
                        fault_data_seen: 0,
                        policy,
                        restart_attempts: 0,
                        last_redelivered: None,
                    })
                    .collect()
            })
            .collect();

        // Move the operator boxes in.
        for (g, entry) in builder.ops.drain(..).enumerate() {
            slots_per_pe[op_pe[g]][local_idx[g]].op = Some(entry.op);
        }

        // Wire edges. The channel capacity is configured in tuples; frames
        // carry up to `batch` tuples each, so the frame-denominated bound
        // keeps roughly the same backpressure depth at any batch size.
        let batch = builder.batch_size.max(1);
        let frame_cap = (builder.channel_capacity.div_ceil(batch)).max(1);
        let checkpoint_dir = builder.checkpoint_dir.take();
        let mut link_endpoints: Vec<(String, String)> = Vec::new();
        let mut rxs_per_pe: Vec<Vec<Receiver<Frame>>> =
            (0..pes.len()).map(|_| Vec::new()).collect();
        let mut metas_per_pe: Vec<Vec<ChanMeta>> = (0..pes.len()).map(|_| Vec::new()).collect();
        for (eid, e) in builder.edges.iter().enumerate() {
            let from_pe = op_pe[e.from];
            let to_pe = op_pe[e.to];
            match (is_local[e.from], is_local[e.to]) {
                (true, true) if from_pe == to_pe => {
                    slots_per_pe[from_pe][local_idx[e.from]].out_ports[e.out_port].push(
                        Target::Local {
                            op: local_idx[e.to],
                            port: e.port,
                        },
                    );
                }
                (true, true) => {
                    let (tx, rx) = bounded(frame_cap);
                    let link = metrics.register_link();
                    link_endpoints.push((op_names[e.from].clone(), op_names[e.to].clone()));
                    let delay = match e.kind {
                        LinkKind::Network { model_delay_us } if model_delay_us > 0 => {
                            Some(Duration::from_micros(model_delay_us))
                        }
                        _ => None,
                    };
                    let pool = Arc::new(FramePool::new(POOL_DEPTH));
                    let inflight = Arc::new(AtomicUsize::new(0));
                    slots_per_pe[from_pe][local_idx[e.from]].out_ports[e.out_port].push(
                        Target::Remote(RemoteEdge {
                            tx,
                            counters: link,
                            delay,
                            batch,
                            buf: pool.take(batch),
                            pool: Arc::clone(&pool),
                            inflight: Arc::clone(&inflight),
                            faults: InjectedFault::arm(
                                plan.link_faults(&op_names[e.from], &op_names[e.to]),
                            ),
                            fault_data_seen: 0,
                        }),
                    );
                    rxs_per_pe[to_pe].push(rx);
                    metas_per_pe[to_pe].push(ChanMeta {
                        to_local: local_idx[e.to],
                        port: e.port,
                        got_eos: false,
                        alive: true,
                        cur: Vec::new(),
                        pool,
                        inflight,
                        routed: 0,
                        net: None,
                    });
                }
                (true, false) => {
                    // Outgoing boundary edge: batched exactly like an
                    // in-process remote edge, but the channel drains into
                    // the socket transport, which encodes each frame once
                    // and retransmits it until the peer acknowledges. The
                    // modeled delay never applies — this is the real wire.
                    let p = partition.as_ref().expect("boundary edge implies partition");
                    let peer = *p.peers.get(&(eid as u64)).unwrap_or_else(|| {
                        panic!(
                            "no peer address for boundary edge {eid} ({} -> {})",
                            op_names[e.from], op_names[e.to]
                        )
                    });
                    let (tx, rx) = bounded(frame_cap);
                    let link = metrics.register_link();
                    link_endpoints.push((op_names[e.from].clone(), op_names[e.to].clone()));
                    let pool = Arc::new(FramePool::new(POOL_DEPTH));
                    let inflight = Arc::new(AtomicUsize::new(0));
                    slots_per_pe[from_pe][local_idx[e.from]].out_ports[e.out_port].push(
                        Target::Remote(RemoteEdge {
                            tx,
                            counters: link,
                            delay: None,
                            batch,
                            buf: pool.take(batch),
                            pool: Arc::clone(&pool),
                            inflight: Arc::clone(&inflight),
                            faults: InjectedFault::arm(
                                plan.link_faults(&op_names[e.from], &op_names[e.to]),
                            ),
                            fault_data_seen: 0,
                        }),
                    );
                    p.net.add_outgoing(eid as u64, rx, pool, inflight, peer);
                }
                (false, true) => {
                    // Incoming boundary edge: the transport decodes frames
                    // into the channel; the consuming PE sees an ordinary
                    // frame channel. With a checkpoint dir the sender must
                    // hold every frame until its effects are durable here
                    // (acks advance at checkpoints); otherwise receipt is
                    // final.
                    let p = partition.as_ref().expect("boundary edge implies partition");
                    let (tx, rx) = bounded(frame_cap);
                    let link = metrics.register_link();
                    drop(link); // receive side has no sender to count on
                    link_endpoints.push((op_names[e.from].clone(), op_names[e.to].clone()));
                    let pool = Arc::new(FramePool::new(POOL_DEPTH));
                    let inflight = Arc::new(AtomicUsize::new(0));
                    let stable = Arc::new(AtomicU64::new(0));
                    let ack = if checkpoint_dir.is_some() {
                        AckMode::Stable(Arc::clone(&stable))
                    } else {
                        AckMode::Receipt
                    };
                    let delivered = p.net.add_incoming(
                        eid as u64,
                        tx,
                        Arc::clone(&pool),
                        Arc::clone(&inflight),
                        ack,
                    );
                    rxs_per_pe[to_pe].push(rx);
                    metas_per_pe[to_pe].push(ChanMeta {
                        to_local: local_idx[e.to],
                        port: e.port,
                        got_eos: false,
                        alive: true,
                        cur: Vec::new(),
                        pool,
                        inflight,
                        routed: 0,
                        net: Some(NetIn {
                            link_id: eid as u64,
                            stable,
                            delivered,
                        }),
                    });
                }
                (false, false) => {} // both ends foreign: the owner wires it
            }
            // In-degrees on the destination slot. Tracked for every edge —
            // a local consumer must count boundary edges (EOS arrives over
            // the wire as ordinary punctuation), and bumping a foreign slot
            // is harmless since its PE never runs here.
            let dst = &mut slots_per_pe[to_pe][local_idx[e.to]];
            match e.port {
                PortKind::Data => dst.data_in_degree += 1,
                PortKind::Control => dst.ctrl_in_degree += 1,
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(pes.len());
        for (pe_index, ((slots, rxs), mut metas)) in slots_per_pe
            .into_iter()
            .zip(rxs_per_pe)
            .zip(metas_per_pe)
            .enumerate()
        {
            // Foreign PEs run in another process; their slots (and the
            // operator boxes inside) are simply dropped here.
            if !pes[pe_index].iter().all(|&g| is_local[g]) {
                continue;
            }
            let checkpoint = checkpoint_dir.as_ref().map(|dir| {
                PeCheckpointer::new_with_vfs(dir, pe_index, Arc::clone(&vfs))
                    .expect("create checkpoint directory")
            });
            let mut rehydrate = None;
            if partition.as_ref().is_some_and(|p| p.rehydrate) {
                if let Some(ckpt) = checkpoint.as_ref() {
                    rehydrate = recover_for_rehydrate(ckpt, pe_index, &mut metas);
                }
            }
            let pe = PeRuntime {
                slots,
                rxs,
                metas,
                stop: Arc::clone(&stop),
                pending: VecDeque::new(),
                pe_index,
                policy,
                checkpoint,
                pe_restarts: 0,
                last_ckpt_total: 0,
                ckpt_failures: 0,
                started: false,
                rehydrate,
            };
            handles.push(
                std::thread::Builder::new()
                    .name("spca-pe".to_string())
                    .spawn(move || run_pe(pe))
                    .expect("spawn PE thread"),
            );
        }

        // Links and watermarks are all registered; open the wire. Wire
        // faults from the plan shim this process's outgoing sockets.
        let net = partition.map(|p| p.net);
        if let Some(net) = &net {
            if let Some(spec) = plan.wire_spec() {
                net.set_faults(spec);
            }
            net.start();
        }

        RunningEngine {
            handles,
            stop,
            metrics,
            op_names,
            link_endpoints,
            started: Instant::now(),
            net,
        }
    }

    /// Builds, runs to completion, and reports. Only meaningful for graphs
    /// whose sources terminate on their own.
    pub fn run(builder: GraphBuilder) -> RunReport {
        Engine::start(builder).join()
    }
}

/// The per-PE sink: routes emissions to the local pending queue or into
/// per-edge frame buffers (flushed adaptively; see [`RemoteEdge`]).
struct PeSink<'a> {
    out_ports: &'a mut [Vec<Target>],
    pending: &'a mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &'a AtomicBool,
}

impl EmitSink for PeSink<'_> {
    fn emit(&mut self, port: usize, t: Tuple) {
        let targets = &mut self.out_ports[port];
        if let Some((last, init)) = targets.split_last_mut() {
            for target in init {
                deliver(target, t.clone(), self.pending);
            }
            deliver(last, t, self.pending);
        }
        // An unwired port silently drops — mirrors InfoSphere streams with
        // no subscribers.
    }

    fn try_emit(&mut self, port: usize, t: Tuple) -> Result<(), Tuple> {
        // All-or-nothing would-block check; local targets never block. A
        // data tuple only forces a send when its edge buffer reaches the
        // batch threshold; control/punctuation flush unconditionally.
        let urgent = !matches!(t, Tuple::Data(_));
        for target in self.out_ports[port].iter() {
            if let Target::Remote(e) = target {
                let would_block = e.tx.is_full() && (urgent || e.buf.len() + 1 >= e.batch);
                if would_block {
                    return Err(t);
                }
            }
        }
        self.emit(port, t);
        Ok(())
    }

    fn backlog(&self, port: usize) -> Option<usize> {
        let targets = &self.out_ports[port];
        if targets.len() != 1 {
            return None;
        }
        match &targets[0] {
            Target::Remote(e) => Some(e.depth()),
            Target::Local { .. } => None,
        }
    }

    fn n_ports(&self) -> usize {
        self.out_ports.len()
    }

    fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn flush_downstream(&mut self) {
        for port in self.out_ports.iter_mut() {
            for target in port.iter_mut() {
                if let Target::Remote(e) = target {
                    e.flush();
                }
            }
        }
    }
}

fn deliver(target: &mut Target, t: Tuple, pending: &mut VecDeque<(usize, PortKind, Tuple)>) {
    match target {
        Target::Local { op, port } => pending.push_back((*op, *port, t)),
        Target::Remote(edge) => edge.push(t),
    }
}

/// Flushes every buffered cross-PE edge of every operator on this PE.
/// Called whenever the scheduler is about to idle or block, so buffered
/// tuples are never stranded behind a sleeping PE.
fn flush_all(slots: &mut [OpSlot]) {
    for slot in slots.iter_mut() {
        for port in slot.out_ports.iter_mut() {
            for target in port.iter_mut() {
                if let Target::Remote(e) = target {
                    e.flush();
                }
            }
        }
    }
}

/// Calls a slot's operator method with a context wired to the PE's sink,
/// timing it into the op's busy counter.
macro_rules! with_op {
    ($slots:expr, $pending:expr, $stop:expr, $idx:expr, |$op:ident, $ctx:ident| $body:expr) => {{
        let mut $op = $slots[$idx].op.take().expect("operator in flight");
        let counters = Arc::clone(&$slots[$idx].counters);
        let t0 = Instant::now();
        let ret = {
            let mut sink = PeSink {
                out_ports: &mut $slots[$idx].out_ports,
                pending: $pending,
                stop: $stop,
            };
            let $ctx = &mut OpContext::new(&mut sink, &counters);
            $body
        };
        counters.add_busy(t0.elapsed().as_nanos() as u64);
        $slots[$idx].op = Some($op);
        ret
    }};
}

/// PE thread entry: the PE-level supervisor. The scheduler body runs under
/// `catch_unwind` while [`PeRuntime`] stays owned out here, so a panic that
/// escapes the operator layer (source `drive`, injected `kill-pe`) tears
/// down only the *stack* of the scheduler — channels, cursors, pending
/// tuples and operator boxes all survive for [`restart_pe`] to rebuild
/// around, and the loop re-enters.
fn run_pe(mut pe: PeRuntime) {
    loop {
        let unwound =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_pe_once(&mut pe)));
        match unwound {
            Ok(()) => return,
            Err(payload) => {
                let clean = payload
                    .downcast_ref::<PeKill>()
                    .map(|k| k.clean)
                    .unwrap_or(false);
                if !restart_pe(&mut pe, clean) {
                    return;
                }
            }
        }
    }
}

/// Writes one consistent checkpoint of every live checkpointable operator
/// in the PE (blobs + manifest; see [`crate::checkpoint`]). A write failure
/// is returned, never panicked — the previous manifest generations stay
/// readable, so callers degrade (skip + counter + backoff) instead of
/// killing the PE over a full disk.
fn write_pe_checkpoint(
    slots: &mut [OpSlot],
    metas: &[ChanMeta],
    ckpt: &mut PeCheckpointer,
) -> std::io::Result<()> {
    let mut parts = Vec::new();
    for slot in slots.iter_mut() {
        if slot.finished {
            continue;
        }
        if let Some(cp) = slot.op.as_mut().and_then(|op| op.checkpoint()) {
            parts.push((slot.name.clone(), cp.snapshot()));
        }
    }
    // Socket-link watermarks ride along as `__netlink{id}` pseudo-parts:
    // they are what lets a respawned process resume the wire exactly where
    // its durable state left off, so they are persisted even when no
    // operator in the PE is checkpointable right now.
    let mut stabilize = Vec::new();
    for m in metas {
        if let Some(net) = &m.net {
            parts.push((
                format!("__netlink{}", net.link_id),
                checkpoint::encode_kv(&[("routed", m.routed.to_string())]),
            ));
            stabilize.push((Arc::clone(&net.stable), m.routed));
        }
    }
    if parts.is_empty() {
        return Ok(());
    }
    ckpt.write(&parts)?;
    // Only a *successful* write moves the stable watermark — the sender
    // must keep retransmitting anything the manifest does not yet cover.
    for (stable, routed) in stabilize {
        stable.fetch_max(routed, Ordering::SeqCst);
    }
    Ok(())
}

/// Startup-time recovery for a respawned distributed worker: reads the
/// PE's manifest, presets the socket-link watermarks (`__netlink{id}`
/// parts) so the RESUME handshake asks each sender to skip what this PE
/// already consumed durably, and returns the operator parts for restore
/// after the `on_start` hooks run.
fn recover_for_rehydrate(
    ckpt: &PeCheckpointer,
    pe_index: usize,
    metas: &mut [ChanMeta],
) -> Option<checkpoint::SnapshotSet> {
    let recovery = ckpt.recover();
    if recovery.quarantined > 0 || recovery.fell_back {
        eprintln!(
            "[engine] PE {pe_index} rehydrate degraded: {} file(s) quarantined, {}",
            recovery.quarantined,
            if recovery.set.is_some() {
                "fell back to an older generation"
            } else {
                "starting fresh"
            }
        );
    }
    let parts = recovery.set?;
    let mut op_parts = Vec::new();
    for (name, blob) in parts {
        let Some(id) = name.strip_prefix("__netlink") else {
            op_parts.push((name, blob));
            continue;
        };
        let Ok(link_id) = id.parse::<u64>() else {
            continue;
        };
        let routed =
            match checkpoint::decode_kv(&blob).and_then(|map| checkpoint::kv_u64(&map, "routed")) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!(
                        "[engine] PE {pe_index} netlink watermark {link_id} unreadable ({e}); \
                     the sender will replay that link from zero"
                    );
                    continue;
                }
            };
        if let Some(m) = metas
            .iter_mut()
            .find(|m| m.net.as_ref().is_some_and(|n| n.link_id == link_id))
        {
            m.routed = routed;
            let net = m.net.as_ref().expect("just matched on net");
            net.stable.store(routed, Ordering::SeqCst);
            net.delivered.store(routed, Ordering::SeqCst);
        }
    }
    Some(op_parts)
}

/// The PE-level supervisor's recovery path. Returns false when the restart
/// budget is exhausted — the PE is then wound down (EOS on every port) so
/// the rest of the graph still drains.
fn restart_pe(pe: &mut PeRuntime, clean: bool) -> bool {
    pe.pe_restarts += 1;
    let attempt = pe.pe_restarts;
    let policy = pe.policy;
    let PeRuntime {
        slots,
        metas,
        stop,
        pending,
        pe_index,
        checkpoint,
        ..
    } = pe;
    let slots = &mut slots[..];
    let stop = &**stop;
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] PE {pe_index} exceeded {} restarts; winding it down",
            policy.max_restarts
        );
        for i in 0..slots.len() {
            if slots[i].finished {
                continue;
            }
            if slots[i].op.is_some() {
                finish_op(slots, pending, stop, i);
            } else {
                finish_op_without_instance(slots, pending, stop, i);
            }
        }
        drain_pending(slots, pending, stop);
        flush_all(slots);
        return false;
    }
    eprintln!(
        "[supervisor] PE {pe_index} died ({}); restarting (attempt {attempt})",
        if clean {
            "injected kill"
        } else {
            "escaped panic"
        }
    );
    std::thread::sleep(policy.backoff(attempt));

    if let Some(ckpt) = checkpoint.as_mut() {
        // A clean (injected) kill unwound between tuples with consistent
        // in-memory state: persist that exact state first, so the restore
        // below genuinely round-trips every operator through disk and the
        // run stays bit-identical to a fault-free one. After an escaped
        // panic the in-memory state is suspect, so recovery falls back to
        // the last *periodic* manifest (loss bounded by the checkpoint
        // cadence).
        if clean {
            if let Err(e) = write_pe_checkpoint(slots, metas, ckpt) {
                eprintln!(
                    "[supervisor] PE {pe_index} teardown checkpoint failed ({e}); \
                     recovering from the last durable generation"
                );
                slots[0].counters.add(Fault::IoFaults, 1);
            }
        }
        // Degrading recovery: a torn or bit-rotted manifest/blob is
        // quarantined aside and recovery falls back to the previous
        // generation — never a PE error. Counters are PE-attributed to
        // the PE's first slot.
        let recovery = ckpt.recover();
        if recovery.quarantined > 0 || recovery.fell_back {
            eprintln!(
                "[supervisor] PE {pe_index} recovery degraded: {} file(s) quarantined, \
                 fell back to {}",
                recovery.quarantined,
                if recovery.set.is_some() {
                    "an older generation"
                } else {
                    "in-memory state"
                }
            );
            slots[0]
                .counters
                .add(Fault::QuarantinedSnapshots, recovery.quarantined);
            slots[0]
                .counters
                .add(Fault::IoFaults, recovery.quarantined.max(1));
        }
        // With no usable set (never checkpointed, or everything
        // quarantined) the in-memory state stands.
        if let Some(parts) = recovery.set {
            for (name, blob) in &parts {
                let Some(i) = slots.iter().position(|s| &s.name == name && !s.finished) else {
                    continue; // operator finished since that checkpoint
                };
                if let Some(cp) = slots[i].op.as_mut().and_then(|op| op.checkpoint()) {
                    if let Err(e) = cp.restore(blob) {
                        eprintln!(
                            "[supervisor] operator '{name}' failed to restore from the PE \
                             manifest ({e}); keeping its in-memory state"
                        );
                    }
                }
            }
        }
    }

    // An operator whose box was consumed by the unwind (panic inside
    // on_start/on_finish hooks) cannot be rebuilt; finish it so its EOS
    // propagates while the rest of the PE comes back.
    for i in 0..slots.len() {
        if slots[i].op.is_none() && !slots[i].finished {
            eprintln!(
                "[supervisor] operator '{}' was lost in the PE unwind; finishing it",
                slots[i].name
            );
            finish_op_without_instance(slots, pending, stop, i);
        }
    }
    for s in slots.iter() {
        s.counters.add(Fault::PeRestarts, 1);
    }
    true
}

/// Like [`finish_op`] but for a slot whose operator box did not survive the
/// PE unwind: no `on_finish` can run, but end-of-stream still propagates.
fn finish_op_without_instance(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
) {
    if slots[idx].finished {
        return;
    }
    slots[idx].finished = true;
    let n_ports = slots[idx].out_ports.len();
    for p in 0..n_ports {
        let mut sink = PeSink {
            out_ports: &mut slots[idx].out_ports,
            pending,
            stop,
        };
        sink.emit(p, Tuple::Punct(Punctuation::EndOfStream));
    }
    for p in slots[idx].out_ports.iter_mut() {
        p.clear();
    }
}

/// One incarnation of the PE's scheduler loop; everything that must outlive
/// a panic is borrowed from [`PeRuntime`], nothing is owned here but the
/// cached selector and index scratch.
fn run_pe_once(pe: &mut PeRuntime) {
    let PeRuntime {
        slots,
        rxs,
        metas,
        stop,
        pending,
        checkpoint,
        last_ckpt_total,
        ckpt_failures,
        started,
        pe_index,
        rehydrate,
        ..
    } = pe;
    let slots = &mut slots[..];
    let metas = &mut metas[..];
    let rxs = &rxs[..];
    let stop = &**stop;

    // Periodic checkpoint cadence: the tightest cadence any member
    // operator asks for. A PE fed over the wire checkpoints at the default
    // cadence even when no member is checkpointable — its manifests carry
    // the netlink watermarks that let stable acks release the sender's
    // retransmit queue.
    let has_net = metas.iter().any(|m| m.net.is_some());
    let cadence: Option<u64> = slots
        .iter_mut()
        .filter(|s| !s.finished)
        .filter_map(|s| s.op.as_mut().and_then(|op| op.checkpoint()))
        .map(|cp| cp.checkpoint_every().max(1))
        .min()
        .or(if has_net && checkpoint.is_some() {
            Some(crate::checkpoint::DEFAULT_CHECKPOINT_EVERY)
        } else {
            None
        });

    if !*started {
        *started = true;

        // Start hooks. (Index loop: the macro needs `slots` whole, by
        // index.)
        #[allow(clippy::needless_range_loop)]
        for i in 0..slots.len() {
            with_op!(slots, pending, stop, i, |op, ctx| op.on_start(ctx));
        }
        drain_pending(slots, pending, stop);

        // Distributed rehydrate: a respawned worker restores its operators
        // from the recovered manifest *after* their start hooks, mirroring
        // the restart_pe recovery order. Wire watermarks were preset before
        // the transport started accepting, so upstream replay begins
        // exactly where this state leaves off.
        if let Some(parts) = rehydrate.take() {
            for (name, blob) in &parts {
                let Some(i) = slots.iter().position(|s| &s.name == name && !s.finished) else {
                    continue; // operator finished since that checkpoint
                };
                if let Some(cp) = slots[i].op.as_mut().and_then(|op| op.checkpoint()) {
                    if let Err(e) = cp.restore(blob) {
                        eprintln!(
                            "[engine] operator '{name}' failed to rehydrate from the PE \
                             manifest ({e}); keeping its fresh state"
                        );
                    }
                }
            }
            drain_pending(slots, pending, stop);
        }

        // Operators with no inputs that aren't sources are trivially
        // finished.
        for i in 0..slots.len() {
            let s = &slots[i];
            if !s.is_source && s.data_in_degree == 0 && s.ctrl_in_degree == 0 {
                finish_op(slots, pending, stop, i);
            }
        }
        drain_pending(slots, pending, stop);
    } else {
        // Re-entry after a PE restart: tuples queued at the moment of death
        // are still in `pending`; deliver them before touching channels.
        drain_pending(slots, pending, stop);
    }

    let source_idxs: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_source).collect();

    // Cached selector over the live receivers, rebuilt only when channel
    // liveness changes (liveness never comes back, so an alive-count match
    // means the registered set is unchanged). `map` translates the
    // selector's operation index back to the channel index.
    let mut cached_sel: Option<(Select<'_>, Vec<usize>)> = None;

    loop {
        let mut progressed = false;

        // 1. Drive live sources.
        for &i in &source_idxs {
            if slots[i].finished {
                continue;
            }
            if stop.load(Ordering::Relaxed) {
                finish_op(slots, pending, stop, i);
                drain_pending(slots, pending, stop);
                continue;
            }
            let state: SourceState = supervised_drive(slots, pending, stop, i);
            match state {
                SourceState::Emitted => progressed = true,
                SourceState::Idle => {}
                SourceState::Done => {
                    finish_op(slots, pending, stop, i);
                    progressed = true;
                }
            }
            drain_pending(slots, pending, stop);
        }

        let sources_alive = source_idxs.iter().any(|&i| !slots[i].finished);

        // 2. Receive from cross-PE channels.
        if sources_alive {
            // Non-blocking frame sweep so sources keep producing.
            if sweep_channels(slots, rxs, metas, pending, stop) {
                progressed = true;
            }
        } else {
            // No live sources: everything this PE will ever process now
            // arrives over its channels. Drain what is already buffered or
            // queued; only when that comes up empty, park in a blocking
            // select. Buffered output must be flushed before blocking — a
            // stranded partial batch could be exactly what the upstream PE
            // is waiting for.
            flush_all(slots);
            if sweep_channels(slots, rxs, metas, pending, stop) {
                progressed = true;
            } else {
                let n_alive = metas.iter().filter(|m| m.alive).count();
                if n_alive > 0 {
                    // Rebuild the cached selector only when liveness
                    // changed (liveness never comes back, so an unchanged
                    // alive count means an unchanged registered set).
                    if cached_sel.as_ref().map(|(_, map)| map.len()) != Some(n_alive) {
                        let mut sel = Select::new();
                        let mut map = Vec::with_capacity(n_alive);
                        for (i, m) in metas.iter().enumerate() {
                            if m.alive {
                                sel.recv(&rxs[i]);
                                map.push(i);
                            }
                        }
                        cached_sel = Some((sel, map));
                    }
                    let (sel, map) = cached_sel.as_mut().expect("selector just ensured");
                    // On timeout, fall through to the exit checks.
                    if let Ok(oper) = sel.select_timeout(Duration::from_millis(20)) {
                        let ci = map[oper.index()];
                        match oper.recv(&rxs[ci]) {
                            Ok(frame) => {
                                progressed = true;
                                metas[ci].accept(frame);
                                // Drain the selected frame plus whatever else
                                // queued meanwhile before paying another
                                // select.
                                sweep_channels(slots, rxs, metas, pending, stop);
                            }
                            Err(_) => {
                                on_disconnect(slots, metas, pending, stop, ci);
                            }
                        }
                    }
                }
            }
        }
        drain_pending(slots, pending, stop);

        // 3. Periodic checkpoint: once the PE's members have consumed a
        //    cadence worth of data tuples since the last snapshot set,
        //    write a fresh consistent generation. This sits between tuples
        //    (the pending queue is drained), so the set is consistent by
        //    construction. A failed write (ENOSPC, fsync error, dead
        //    device) is a *skip*, never a PE panic: the last durable
        //    generations stay readable, the skip is counted, and the
        //    effective window doubles per consecutive failure (capped at
        //    64×) so a full disk is retried at a gentle rate.
        if let (Some(every), Some(ckpt)) = (cadence, checkpoint.as_mut()) {
            // Count routed entries on net-fed channels on top of data
            // tuples: a PE consuming only control traffic (e.g. a
            // snapshot sink) must still advance its link watermarks, or
            // the senders' stable acks — and their replay-queue pruning —
            // stall until the terminal flush. Data tuples arriving over a
            // link land in both sums, which merely tightens the cadence.
            let total: u64 = slots
                .iter()
                .map(|s| s.counters.tuples_in.load(Ordering::Relaxed))
                .sum::<u64>()
                + metas
                    .iter()
                    .filter(|m| m.net.is_some())
                    .map(|m| m.routed)
                    .sum::<u64>();
            let effective = every << (*ckpt_failures).min(6);
            if total.saturating_sub(*last_ckpt_total) >= effective {
                *last_ckpt_total = total;
                match write_pe_checkpoint(slots, metas, ckpt) {
                    Ok(()) => *ckpt_failures = 0,
                    Err(e) => {
                        *ckpt_failures += 1;
                        eprintln!(
                            "[supervisor] PE {pe_index} periodic checkpoint skipped ({e}); \
                             backing off to a {}x window",
                            1u64 << (*ckpt_failures).min(6)
                        );
                        slots[0].counters.add(Fault::CheckpointSkips, 1);
                        slots[0].counters.add(Fault::IoFaults, 1);
                    }
                }
            }
        }

        // 4. Exit when everything is finished.
        if slots.iter().all(|s| s.finished) {
            break;
        }
        // If nothing happened and no channel can ever deliver again, the
        // remaining unfinished ops can never finish through EOS (e.g. a
        // consumer fed only by a stopped peer that never wired EOS) —
        // finish them defensively rather than spinning forever.
        let channels_alive = metas.iter().any(|c| c.alive);
        if !progressed && !sources_alive && !channels_alive && pending.is_empty() {
            for i in 0..slots.len() {
                if !slots[i].finished {
                    finish_op(slots, pending, stop, i);
                }
            }
            drain_pending(slots, pending, stop);
        }
        if !progressed && sources_alive {
            // Idle sources: flush buffered output (nothing else will), then
            // yield briefly instead of spinning.
            flush_all(slots);
            std::thread::yield_now();
        }
    }

    // Terminal watermark flush: a PE fed over the wire persists its final
    // netlink watermarks so the stable acks cover everything it consumed —
    // without this, the peer's sender would hold its whole retransmit
    // queue at shutdown and exit with an unacked-tail warning.
    if has_net {
        if let Some(ckpt) = checkpoint.as_mut() {
            if let Err(e) = write_pe_checkpoint(slots, metas, ckpt) {
                eprintln!("[supervisor] PE {pe_index} terminal checkpoint failed ({e})");
            }
        }
    }
}

/// Bounded, non-blocking sweep: up to [`SWEEP_TUPLES`] round-robin passes,
/// each routing at most one tuple per live channel (refilling a channel's
/// cursor from its queue when it runs dry). Tuple-granular interleaving
/// across channels preserves the per-tuple transport's select fairness —
/// fused control cycles rely on no channel racing far ahead of its
/// siblings — while channel synchronization is still paid only once per
/// frame. Returns true if anything was routed.
fn sweep_channels(
    slots: &mut [OpSlot],
    rxs: &[Receiver<Frame>],
    metas: &mut [ChanMeta],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
) -> bool {
    let mut progressed = false;
    for _pass in 0..SWEEP_TUPLES {
        let mut any = false;
        for ci in 0..metas.len() {
            if !metas[ci].alive {
                continue;
            }
            match next_tuple(rxs, metas, ci) {
                Next::Tuple(t) => {
                    any = true;
                    progressed = true;
                    route_one(slots, metas, pending, stop, ci, t);
                    drain_pending(slots, pending, stop);
                }
                Next::Empty => {}
                Next::Disconnected => {
                    on_disconnect(slots, metas, pending, stop, ci);
                    drain_pending(slots, pending, stop);
                }
            }
        }
        if !any {
            break;
        }
    }
    progressed
}

/// Next tuple from channel `ci`'s cursor, refilling from the queue when the
/// cursor is spent.
fn next_tuple(rxs: &[Receiver<Frame>], metas: &mut [ChanMeta], ci: usize) -> Next {
    if let Some(t) = metas[ci].cur.pop() {
        return Next::Tuple(t);
    }
    match rxs[ci].try_recv() {
        Ok(frame) => {
            metas[ci].accept(frame);
            match metas[ci].cur.pop() {
                Some(t) => Next::Tuple(t),
                None => Next::Empty, // defensively: an empty frame
            }
        }
        Err(crossbeam::channel::TryRecvError::Empty) => Next::Empty,
        Err(crossbeam::channel::TryRecvError::Disconnected) => Next::Disconnected,
    }
}

/// Routes a single tuple received on channel `ci`.
fn route_one(
    slots: &mut [OpSlot],
    metas: &mut [ChanMeta],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    ci: usize,
    t: Tuple,
) {
    metas[ci].routed += 1;
    if t.is_eos() {
        metas[ci].got_eos = true;
        metas[ci].alive = false;
    }
    let to = metas[ci].to_local;
    let port = metas[ci].port;
    dispatch(slots, pending, stop, to, port, t);
}

fn on_disconnect(
    slots: &mut [OpSlot],
    metas: &mut [ChanMeta],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    ci: usize,
) {
    metas[ci].alive = false;
    if !metas[ci].got_eos {
        // Upstream dropped without punctuating (stop/panic path): treat the
        // closure as end-of-stream so this PE can still drain and exit.
        metas[ci].got_eos = true;
        let to = metas[ci].to_local;
        let port = metas[ci].port;
        dispatch(
            slots,
            pending,
            stop,
            to,
            port,
            Tuple::Punct(Punctuation::EndOfStream),
        );
    }
}

fn dispatch(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
    port: PortKind,
    t: Tuple,
) {
    if slots[idx].finished {
        return; // late tuple for a finished operator
    }
    match t {
        Tuple::Punct(Punctuation::EndOfStream) => {
            match port {
                PortKind::Data => slots[idx].eos_data += 1,
                PortKind::Control => slots[idx].eos_ctrl += 1,
            }
            let s = &slots[idx];
            let data_done = s.eos_data >= s.data_in_degree;
            let ready = if s.data_in_degree > 0 {
                data_done
            } else {
                // Control-only consumer: wait for its control edges.
                s.eos_ctrl >= s.ctrl_in_degree
            };
            // Sources with no inputs only finish via drive()/stop; a source
            // *with* a data input (e.g. a sync controller watching the data
            // stream) winds down when that stream ends.
            let externally_finishable = !s.is_source || s.data_in_degree > 0;
            if ready && externally_finishable {
                finish_op(slots, pending, stop, idx);
            }
        }
        Tuple::Data(d) => {
            if port == PortKind::Data {
                slots[idx].counters.add_in();
                supervised_process(slots, pending, stop, idx, d);
            }
            // Data on a control port is a wiring error; dropped.
        }
        Tuple::Control(c) => {
            slots[idx].counters.add_control();
            supervised_control(slots, pending, stop, idx, c);
        }
    }
}

/// Drives a source under `catch_unwind`. A panicking `drive` cannot be
/// isolated at the operator layer — the source's cursor may be mid-emission
/// and there is no in-flight tuple to redeliver — so the panic is
/// *escalated*: the operator box is parked back in its slot first (it must
/// survive for checkpoint recovery), then the whole PE is unwound for the
/// PE-level supervisor to rebuild.
fn supervised_drive(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
) -> SourceState {
    let mut op = slots[idx].op.take().expect("operator in flight");
    let counters = Arc::clone(&slots[idx].counters);
    let t0 = Instant::now();
    let result = {
        let mut sink = PeSink {
            out_ports: &mut slots[idx].out_ports,
            pending,
            stop,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ctx = &mut OpContext::new(&mut sink, &counters);
            op.drive(ctx)
        }))
    };
    counters.add_busy(t0.elapsed().as_nanos() as u64);
    slots[idx].op = Some(op);
    match result {
        Ok(state) => state,
        Err(_) => {
            eprintln!(
                "[supervisor] source '{}' panicked in drive; escalating to a PE restart",
                slots[idx].name
            );
            std::panic::panic_any(PeKill { clean: false })
        }
    }
}

/// Applies pre-delivery operator faults (poison/stall), determines whether
/// an injected panic is due, and hands the tuple to the supervised call.
fn supervised_process(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
    d: DataTuple,
) {
    let mut d = d;
    let mut panic_due = false;
    let mut kill_pe_due = false;
    if !slots[idx].faults.is_empty() {
        slots[idx].fault_data_seen += 1;
        let seen = slots[idx].fault_data_seen;
        for f in slots[idx].faults.iter_mut() {
            if f.fired {
                continue;
            }
            match f.action {
                FaultAction::PoisonNan(n) if n == seen => {
                    f.fired = true;
                    d = d.poisoned(f64::NAN);
                }
                FaultAction::PoisonInf(n) if n == seen => {
                    f.fired = true;
                    d = d.poisoned(f64::INFINITY);
                }
                FaultAction::Stall { at, ms } if at == seen => {
                    f.fired = true;
                    std::thread::sleep(Duration::from_millis(ms));
                }
                // The injected panic fires *after* `process` returns, so a
                // deterministic fault leaves the tuple fully processed — the
                // declared fault window loses no data.
                FaultAction::PanicAfter(n) if n == seen => {
                    f.fired = true;
                    panic_due = true;
                }
                FaultAction::KillPe(n) if n == seen => {
                    f.fired = true;
                    kill_pe_due = true;
                }
                _ => {}
            }
        }
    }
    deliver_supervised(slots, pending, stop, idx, d, panic_due);
    if kill_pe_due {
        // Fires after `process` returned and the operator box is parked
        // back in its slot: the whole PE unwinds from a consistent
        // between-tuples state (`clean`), so teardown can persist it and
        // recovery loses nothing.
        std::panic::panic_any(PeKill { clean: true });
    }
}

/// Runs `process` under `catch_unwind`, borrowing (not moving) the operator
/// so the instance survives an unwind and `recover` can run on its real
/// state. parking_lot mutexes do not poison, so surviving state stays
/// usable.
fn deliver_supervised(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
    d: DataTuple,
    inject_panic: bool,
) {
    let retry = d.clone();
    let mut op = slots[idx].op.take().expect("operator in flight");
    let counters = Arc::clone(&slots[idx].counters);
    let t0 = Instant::now();
    let mut completed = false;
    let result = {
        let mut sink = PeSink {
            out_ports: &mut slots[idx].out_ports,
            pending,
            stop,
        };
        let completed = &mut completed;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ctx = &mut OpContext::new(&mut sink, &counters);
            op.process(d, ctx);
            *completed = true;
            if inject_panic {
                panic!("injected fault: deterministic panic from the fault plan");
            }
        }))
    };
    counters.add_busy(t0.elapsed().as_nanos() as u64);
    slots[idx].op = Some(op);
    if result.is_err() {
        // A real mid-process panic left the tuple unprocessed: redeliver it
        // after recovery. The injected panic fires after completion, so its
        // tuple is never redelivered (zero loss outside the fault window).
        let redeliver = if completed { None } else { Some(retry) };
        handle_panic(slots, pending, stop, idx, redeliver);
    }
}

/// Runs `on_control` under `catch_unwind`. Control tuples are never
/// redelivered: sync commands are periodic and a missed one is simply the
/// next skipped sync, not data loss.
fn supervised_control(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
    c: crate::tuple::ControlTuple,
) {
    let mut op = slots[idx].op.take().expect("operator in flight");
    let counters = Arc::clone(&slots[idx].counters);
    let t0 = Instant::now();
    let result = {
        let mut sink = PeSink {
            out_ports: &mut slots[idx].out_ports,
            pending,
            stop,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ctx = &mut OpContext::new(&mut sink, &counters);
            op.on_control(c, ctx);
        }))
    };
    counters.add_busy(t0.elapsed().as_nanos() as u64);
    slots[idx].op = Some(op);
    if result.is_err() {
        handle_panic(slots, pending, stop, idx, None);
    }
}

/// The supervisor's panic path: capped exponential backoff, then a guarded
/// `recover` call. A recovered operator resumes (optionally re-fed the
/// in-flight tuple, once); an unrecoverable one — or one past its restart
/// budget — is finished so end-of-stream still propagates downstream.
fn handle_panic(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
    retry: Option<DataTuple>,
) {
    let attempt = slots[idx].restart_attempts + 1;
    let policy = slots[idx].policy;
    if attempt > policy.max_restarts {
        eprintln!(
            "[supervisor] operator '{}' exceeded {} restarts; finishing it",
            slots[idx].name, policy.max_restarts
        );
        finish_op(slots, pending, stop, idx);
        return;
    }
    std::thread::sleep(policy.backoff(attempt));
    let mut op = slots[idx].op.take().expect("operator in flight");
    // recover() itself runs guarded: an operator that panics while
    // restoring is unrecoverable.
    let recovered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.recover(attempt)));
    slots[idx].op = Some(op);
    match recovered {
        Ok(true) => {
            slots[idx].restart_attempts = attempt;
            slots[idx].counters.add(Fault::Restarts, 1);
            if let Some(d) = retry {
                // Redeliver the in-flight tuple exactly once: a tuple whose
                // retry panics again is a poison pill and is dropped.
                if slots[idx].last_redelivered != Some(d.seq) {
                    slots[idx].last_redelivered = Some(d.seq);
                    deliver_supervised(slots, pending, stop, idx, d, false);
                }
            }
        }
        _ => {
            eprintln!(
                "[supervisor] operator '{}' did not recover (attempt {attempt}); finishing it",
                slots[idx].name
            );
            finish_op(slots, pending, stop, idx);
        }
    }
}

fn finish_op(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
    idx: usize,
) {
    if slots[idx].finished {
        return;
    }
    with_op!(slots, pending, stop, idx, |op, ctx| op.on_finish(ctx));
    slots[idx].finished = true;
    // Punctuate every out port (local + remote). Punctuation is urgent, so
    // each edge flushes any buffered data tuples ahead of its EOS.
    let n_ports = slots[idx].out_ports.len();
    for p in 0..n_ports {
        let mut sink = PeSink {
            out_ports: &mut slots[idx].out_ports,
            pending,
            stop,
        };
        sink.emit(p, Tuple::Punct(Punctuation::EndOfStream));
    }
    // Release channel senders so downstream PEs observe closure even if
    // they already stopped selecting this edge.
    for p in slots[idx].out_ports.iter_mut() {
        p.clear();
    }
}

fn drain_pending(
    slots: &mut [OpSlot],
    pending: &mut VecDeque<(usize, PortKind, Tuple)>,
    stop: &AtomicBool,
) {
    while let Some((idx, port, t)) = pending.pop_front() {
        dispatch(slots, pending, stop, idx, port, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, OpId};
    use crate::operator::{OpContext, Operator, SourceState};
    use crate::tuple::DataTuple;
    use parking_lot::Mutex;

    /// Source emitting `n` one-dimensional tuples then finishing.
    struct CountSource {
        n: u64,
        next: u64,
    }

    impl Operator for CountSource {
        fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if self.next >= self.n {
                return SourceState::Done;
            }
            let d = DataTuple::new(self.next, vec![self.next as f64]);
            self.next += 1;
            ctx.emit_data(0, d);
            SourceState::Emitted
        }
    }

    /// Terminal operator collecting sequence numbers.
    #[derive(Clone)]
    struct Collect {
        seen: Arc<Mutex<Vec<u64>>>,
    }

    impl Operator for Collect {
        fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
            self.seen.lock().push(t.seq);
        }
    }

    /// Pass-through doubling the value.
    struct Double;
    impl Operator for Double {
        fn process(&mut self, t: DataTuple, ctx: &mut OpContext<'_>) {
            let vals: Vec<f64> = t.values.iter().map(|v| v * 2.0).collect();
            ctx.emit_data(0, DataTuple::new(t.seq, vals));
        }
    }

    fn pipeline(n: u64, fused: bool) -> (Vec<u64>, RunReport) {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        if fused {
            g.fuse(&[src, mid, sink]);
        }
        let report = Engine::run(g);
        let data = seen.lock().clone();
        (data, report)
    }

    #[test]
    fn unfused_pipeline_delivers_everything_in_order() {
        let (seen, report) = pipeline(1000, false);
        assert_eq!(seen.len(), 1000);
        assert!(seen.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("collect").unwrap().tuples_in, 1000);
        assert_eq!(report.op("src").unwrap().tuples_out, 1000);
        // Two cross-PE links carried traffic.
        assert_eq!(report.links.len(), 2);
        assert_eq!(report.links[0].tuples(), 1001); // + EOS
        assert_eq!(report.links[0].from, "src");
        assert_eq!(report.links[1].to, "collect");
    }

    #[test]
    fn fused_pipeline_has_no_links() {
        let (seen, report) = pipeline(500, true);
        assert_eq!(seen.len(), 500);
        assert!(report.links.is_empty());
        assert_eq!(report.op("double").unwrap().tuples_in, 500);
    }

    #[test]
    fn fan_out_duplicates_tuples() {
        let mut g = GraphBuilder::new();
        let seen_a = Arc::new(Mutex::new(Vec::new()));
        let seen_b = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 100, next: 0 }));
        let a = g.add_op(
            "a",
            Box::new(Collect {
                seen: Arc::clone(&seen_a),
            }),
        );
        let b = g.add_op(
            "b",
            Box::new(Collect {
                seen: Arc::clone(&seen_b),
            }),
        );
        g.connect(src, 0, a, PortKind::Data);
        g.connect(src, 0, b, PortKind::Data);
        Engine::run(g);
        assert_eq!(seen_a.lock().len(), 100);
        assert_eq!(seen_b.lock().len(), 100);
    }

    #[test]
    fn stop_terminates_infinite_source() {
        struct Forever(u64);
        impl Operator for Forever {
            fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                self.0 += 1;
                ctx.emit_data(0, DataTuple::new(self.0, vec![0.0]));
                SourceState::Emitted
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("inf", Box::new(Forever(0)));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let running = Engine::start(g);
        std::thread::sleep(Duration::from_millis(50));
        running.stop();
        let report = running.join();
        let n = seen.lock().len() as u64;
        assert!(n > 0, "nothing flowed before stop");
        assert_eq!(report.op("collect").unwrap().tuples_in, n);
    }

    #[test]
    fn on_finish_emits_final_results() {
        struct Summer {
            total: f64,
        }
        impl Operator for Summer {
            fn process(&mut self, t: DataTuple, _ctx: &mut OpContext<'_>) {
                self.total += t.values[0];
            }
            fn on_finish(&mut self, ctx: &mut OpContext<'_>) {
                ctx.emit_data(0, DataTuple::new(0, vec![self.total]));
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 10, next: 0 }));
        let sum = g.add_op("sum", Box::new(Summer { total: 0.0 }));
        let out = g.add_op(
            "out",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sum, PortKind::Data);
        g.connect(sum, 0, out, PortKind::Data);
        Engine::run(g);
        // Final tuple seq 0 carrying sum 0+1+..+9 = 45 observed by `out`.
        assert_eq!(seen.lock().len(), 1);
    }

    #[test]
    fn control_edges_do_not_gate_completion() {
        // A control-only cycle between two ops must not deadlock: data EOS
        // finishes both.
        struct Echo;
        impl Operator for Echo {
            fn process(&mut self, t: DataTuple, ctx: &mut OpContext<'_>) {
                // Send a control ping to the peer on port 1.
                ctx.emit_control(1, crate::tuple::ControlTuple::signal(1, t.seq as u32));
                ctx.emit_data(0, t);
            }
        }
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 50, next: 0 }));
        let e1 = g.add_op("e1", Box::new(Echo));
        let e2 = g.add_op("e2", Box::new(Echo));
        let sink = g.add_op(
            "sink",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, e1, PortKind::Data);
        g.connect(src, 0, e2, PortKind::Data);
        g.connect(e1, 0, sink, PortKind::Data);
        g.connect(e2, 0, sink, PortKind::Data);
        // Control cycle. Fusing the echoes makes control delivery
        // deterministic (in-PE pending queue drains before data EOS);
        // cross-PE control tuples racing EOS may legitimately be dropped.
        g.connect(e1, 1, e2, PortKind::Control);
        g.connect(e2, 1, e1, PortKind::Control);
        g.fuse(&[e1, e2]);
        let report = Engine::run(g);
        assert_eq!(seen.lock().len(), 100);
        // Both echoes saw control traffic, and the cycle did not deadlock.
        assert!(report.op("e1").unwrap().control_in > 0);
        assert!(report.op("e2").unwrap().control_in > 0);
    }

    #[test]
    fn backpressure_does_not_lose_tuples() {
        let mut g = GraphBuilder::new().with_channel_capacity(2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 500, next: 0 }));
        struct Slow;
        impl Operator for Slow {
            fn process(&mut self, t: DataTuple, ctx: &mut OpContext<'_>) {
                std::thread::sleep(Duration::from_micros(20));
                ctx.emit_data(0, t);
            }
        }
        let slow = g.add_op("slow", Box::new(Slow));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, slow, PortKind::Data);
        g.connect(slow, 0, sink, PortKind::Data);
        Engine::run(g);
        assert_eq!(seen.lock().len(), 500);
    }

    #[test]
    fn network_link_accounts_bytes() {
        let mut g = GraphBuilder::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 10, next: 0 }));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect_kind(
            src,
            0,
            sink,
            PortKind::Data,
            LinkKind::Network { model_delay_us: 0 },
        );
        let report = Engine::run(g);
        assert_eq!(report.links.len(), 1);
        // 10 data tuples (16 + 8 bytes each) + EOS (8).
        assert_eq!(report.links[0].bytes(), 10 * 24 + 8);
    }

    #[test]
    fn empty_graph_terminates() {
        let g = GraphBuilder::new();
        let report = Engine::run(g);
        assert!(report.ops.is_empty());
    }

    #[test]
    fn kill_pe_restarts_the_pe_without_losing_tuples() {
        // Kill the PE hosting `double` after its 50th tuple. The injected
        // kill fires between tuples, the PE rebuilds in place, and every
        // tuple still arrives exactly once, in order.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:50").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 1000, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = seen.lock().clone();
        assert_eq!(data.len(), 1000, "kill-pe must not lose or duplicate");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("double").unwrap().faults[Fault::PeRestarts], 1);
        assert_eq!(report.op("src").unwrap().faults[Fault::PeRestarts], 0);
        assert_eq!(report.total_pe_restarts(), 1);
        // Operator-level restarts are a different counter and stay zero.
        assert_eq!(report.total_restarts(), 0);
    }

    #[test]
    fn kill_pe_in_fused_pe_counts_every_member() {
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:10").unwrap());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("src", Box::new(CountSource { n: 200, next: 0 }));
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        g.fuse(&[mid, sink]);
        let report = Engine::run(g);
        assert_eq!(seen.lock().len(), 200);
        // Both fused members lived through the same PE restart.
        assert_eq!(report.op("double").unwrap().faults[Fault::PeRestarts], 1);
        assert_eq!(report.op("collect").unwrap().faults[Fault::PeRestarts], 1);
        assert_eq!(report.op("src").unwrap().faults[Fault::PeRestarts], 0);
    }

    /// A source with a durable cursor: emits `0..n`, checkpointing `next`.
    /// On a dirty restart the cursor would rewind to the last snapshot; the
    /// `emitted` log records what actually went out.
    struct DurableSource {
        n: u64,
        next: u64,
        every: u64,
    }

    impl Operator for DurableSource {
        fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
        fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
            if self.next >= self.n {
                return SourceState::Done;
            }
            let d = DataTuple::new(self.next, vec![self.next as f64]);
            self.next += 1;
            ctx.emit_data(0, d);
            SourceState::Emitted
        }
        fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
            Some(self)
        }
    }

    impl crate::checkpoint::Checkpoint for DurableSource {
        fn snapshot(&self) -> Vec<u8> {
            crate::checkpoint::encode_kv(&[("next", self.next.to_string())])
        }
        fn restore(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            let map = crate::checkpoint::decode_kv(bytes)?;
            self.next = crate::checkpoint::kv_u64(&map, "next")?;
            Ok(())
        }
        fn checkpoint_every(&self) -> u64 {
            self.every
        }
    }

    #[test]
    fn kill_pe_with_checkpoint_dir_round_trips_state_through_disk() {
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Fault triggers count data tuples *delivered to* an operator, so
        // the kill targets `double` — fused with the source below, its PE
        // death tears the checkpointable source down with it.
        let mut g = GraphBuilder::new()
            .with_fault_plan(crate::fault::FaultPlan::parse("kill-pe@double:40").unwrap())
            .with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(DurableSource {
                n: 500,
                next: 0,
                every: 25,
            }),
        );
        let mid = g.add_op("double", Box::new(Double));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, mid, PortKind::Data);
        g.connect(mid, 0, sink, PortKind::Data);
        // Fuse the source with `double` so killing the PE (triggered by
        // double's 40th tuple) also tears down the checkpointable source;
        // the clean kill persists `next` at teardown and restores it, so
        // the stream continues exactly where it left off.
        g.fuse(&[src, mid]);
        let report = Engine::run(g);
        let data = seen.lock().clone();
        assert_eq!(data.len(), 500, "restored cursor must not skip or repeat");
        assert!(data.windows(2).all(|w| w[1] == w[0] + 1), "order violated");
        assert_eq!(report.op("src").unwrap().faults[Fault::PeRestarts], 1);
        // The teardown manifest is on disk and names the durable source.
        let manifest = crate::checkpoint::read_pe_manifest(&dir, 0)
            .unwrap()
            .expect("PE 0 wrote a manifest");
        assert!(manifest.iter().any(|(name, _)| name == "src"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drive_panic_escalates_to_pe_restart_and_recovers_from_checkpoint() {
        // A source that panics in drive() once, at tuple 30. The PE-level
        // supervisor restores its cursor from the last periodic checkpoint
        // (cadence 10), so some tuples repeat but none are skipped.
        struct FlakySource {
            inner: DurableSource,
            panic_at: u64,
            panicked: bool,
        }
        impl Operator for FlakySource {
            fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
            fn drive(&mut self, ctx: &mut OpContext<'_>) -> SourceState {
                if !self.panicked && self.inner.next == self.panic_at {
                    self.panicked = true;
                    panic!("flaky source");
                }
                self.inner.drive(ctx)
            }
            fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
                Some(&mut self.inner)
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "spca-engine-ckpt-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: true,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        // First make sure the no-panic baseline works, then the panic run.
        let report = Engine::run(g);
        assert_eq!(seen.lock().len(), 100);
        assert_eq!(report.total_pe_restarts(), 0);

        let mut g = GraphBuilder::new().with_checkpoint_dir(&dir);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source(
            "src",
            Box::new(FlakySource {
                inner: DurableSource {
                    n: 100,
                    next: 0,
                    every: 10,
                },
                panic_at: 30,
                panicked: false,
            }),
        );
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        let data = seen.lock().clone();
        assert_eq!(report.op("src").unwrap().faults[Fault::PeRestarts], 1);
        // The cursor rewound to a checkpoint at or before tuple 30: every
        // value 0..100 is present (no loss), duplicates only inside the
        // rewind window.
        let mut uniq: Vec<u64> = data.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq, (0..100).collect::<Vec<u64>>(), "values lost");
        assert!(
            data.len() >= 100 && data.len() <= 100 + 30,
            "rewind window too large: {} tuples",
            data.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pe_restart_budget_exhaustion_winds_the_pe_down() {
        // Every drive() call panics: the PE burns its restart budget and is
        // wound down; EOS still propagates so the run terminates.
        struct AlwaysPanics;
        impl Operator for AlwaysPanics {
            fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
            fn drive(&mut self, _ctx: &mut OpContext<'_>) -> SourceState {
                panic!("always");
            }
        }
        let mut g = GraphBuilder::new().with_restart_policy(crate::fault::RestartPolicy {
            max_restarts: 2,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(1),
        });
        let seen = Arc::new(Mutex::new(Vec::new()));
        let src = g.add_source("bad", Box::new(AlwaysPanics));
        let sink = g.add_op(
            "collect",
            Box::new(Collect {
                seen: Arc::clone(&seen),
            }),
        );
        g.connect(src, 0, sink, PortKind::Data);
        let report = Engine::run(g);
        assert!(seen.lock().is_empty());
        assert_eq!(report.op("bad").unwrap().faults[Fault::PeRestarts], 2);
    }

    #[test]
    fn isolated_non_source_terminates() {
        let mut g = GraphBuilder::new();
        struct Nop;
        impl Operator for Nop {
            fn process(&mut self, _t: DataTuple, _ctx: &mut OpContext<'_>) {}
        }
        let _id: OpId = g.add_op("lonely", Box::new(Nop));
        let report = Engine::run(g);
        assert_eq!(report.ops.len(), 1);
    }
}
