//! Per-operator and per-link counters — the engine's "profiling tool".
//!
//! §III-D: "IBM InfoSphere Streams provides a set of tools for profiling
//! the application. The profiling tool measures the performance of each
//! component and the data channels traffic." These registries expose the
//! same signals: tuple counts in/out and busy time per operator, tuple and
//! byte counts per link, plus one counter per [`Fault`] row, all lock-free
//! (`AtomicU64` with relaxed ordering — counters need atomicity, not
//! ordering).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One fault counter: a row of the table that [`OpCounters`],
/// [`OpSnapshot`], the `/metrics` body and the CLI fault summary all
/// derive from. Adding a counter is a variant, its arm in `names` and its
/// entry at the end of [`Fault::ALL`] (scrapers read the summary by
/// position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Supervisor restarts after an isolated operator panic.
    Restarts,
    /// Whole-PE restarts this operator lived through (the hosting thread
    /// died and every fused operator was rebuilt from its checkpoint).
    PeRestarts,
    /// Tuples diverted to quarantine (non-finite payloads).
    Quarantined,
    /// Synchronization steps skipped (gate not passed / engine not alive).
    SyncSkips,
    /// Storage faults survived (failed checkpoint writes, damaged files
    /// discovered at recovery, state-store quarantines).
    IoFaults,
    /// Checkpoint/manifest/state files quarantined aside as `*.corrupt-N`
    /// after failing structural validation.
    QuarantinedSnapshots,
    /// Periodic PE checkpoints skipped because the write failed (ENOSPC,
    /// fsync error, dead device) — the PE keeps running and backs off.
    CheckpointSkips,
    /// Elastic scale-out events (engines admitted into the active fleet).
    ScaleOuts,
    /// Elastic scale-in events (engines retired from the active fleet).
    ScaleIns,
}

/// Number of [`Fault`] rows.
const N_FAULTS: usize = 9;

impl Fault {
    /// Every counter, in report order.
    pub const ALL: [Fault; N_FAULTS] = [
        Fault::Restarts,
        Fault::PeRestarts,
        Fault::Quarantined,
        Fault::SyncSkips,
        Fault::IoFaults,
        Fault::QuarantinedSnapshots,
        Fault::CheckpointSkips,
        Fault::ScaleOuts,
        Fault::ScaleIns,
    ];

    /// `(/metrics name, fault-summary label)` of this row.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Fault::Restarts => ("spca_restarts", "operator restarts"),
            Fault::PeRestarts => ("spca_pe_restarts", "PE restarts (operator-weighted)"),
            Fault::Quarantined => ("spca_quarantined", "quarantined tuples"),
            Fault::SyncSkips => ("spca_sync_skips", "skipped syncs"),
            Fault::IoFaults => ("spca_io_faults", "storage faults absorbed"),
            Fault::QuarantinedSnapshots => ("spca_quarantined_snapshots", "quarantined snapshots"),
            Fault::CheckpointSkips => ("spca_checkpoint_skips", "skipped checkpoints"),
            Fault::ScaleOuts => ("spca_scale_outs", "scale-outs"),
            Fault::ScaleIns => ("spca_scale_ins", "scale-ins"),
        }
    }

    /// The counter's name in the `/metrics` body (`spca_restarts`, …).
    pub fn metric_name(self) -> &'static str {
        self.names().0
    }

    /// The counter's label in the CLI fault summary (`operator restarts`, …).
    pub fn label(self) -> &'static str {
        self.names().1
    }
}

/// One count per [`Fault`] row, indexed by `Fault`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts([u64; N_FAULTS]);

impl FaultCounts {
    /// Sums the counts over operator snapshots — a finished run's
    /// `RunReport::ops` or a live `RunningEngine::op_snapshots`.
    pub fn sum(ops: &[(String, OpSnapshot)]) -> Self {
        FaultCounts(std::array::from_fn(|i| {
            ops.iter().map(|(_, s)| s.faults.0[i]).sum()
        }))
    }

    /// The CLI's one-line fault summary (`fault summary: 0 operator
    /// restarts, 1 PE restarts (operator-weighted), …`), or `None` when
    /// every count is zero.
    pub fn summary(&self) -> Option<String> {
        if *self == FaultCounts::default() {
            return None;
        }
        let rows: Vec<String> = Fault::ALL
            .iter()
            .map(|&f| format!("{} {}", self[f], f.label()))
            .collect();
        Some(format!("fault summary: {}", rows.join(", ")))
    }
}

impl std::ops::Index<Fault> for FaultCounts {
    type Output = u64;
    fn index(&self, f: Fault) -> &u64 {
        &self.0[f as usize]
    }
}

impl std::ops::IndexMut<Fault> for FaultCounts {
    fn index_mut(&mut self, f: Fault) -> &mut u64 {
        &mut self.0[f as usize]
    }
}

/// Live counters for one operator.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Data tuples consumed.
    pub tuples_in: AtomicU64,
    /// Data tuples emitted.
    pub tuples_out: AtomicU64,
    /// Control tuples consumed.
    pub control_in: AtomicU64,
    /// Nanoseconds spent inside `process`/`on_control`.
    pub busy_ns: AtomicU64,
    /// One counter per [`Fault`] row.
    pub faults: [AtomicU64; N_FAULTS],
}

/// Live counters for one cross-PE link.
#[derive(Debug, Default)]
pub struct LinkCounters {
    /// Tuples transferred.
    pub tuples: AtomicU64,
    /// Estimated bytes transferred.
    pub bytes: AtomicU64,
}

/// Immutable snapshot of one operator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Data tuples consumed.
    pub tuples_in: u64,
    /// Data tuples emitted.
    pub tuples_out: u64,
    /// Control tuples consumed.
    pub control_in: u64,
    /// Nanoseconds of busy time.
    pub busy_ns: u64,
    /// Fault counts, indexed by [`Fault`].
    pub faults: FaultCounts,
}

/// Immutable snapshot of one link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Tuples transferred.
    pub tuples: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

impl OpCounters {
    /// Takes a consistent-enough snapshot (relaxed reads).
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            control_in: self.control_in.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            faults: FaultCounts(self.faults.each_ref().map(|c| c.load(Ordering::Relaxed))),
        }
    }

    pub(crate) fn add_in(&self) {
        self.tuples_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_out(&self) {
        self.tuples_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_control(&self) {
        self.control_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds `n` to the `fault` counter.
    pub(crate) fn add(&self, fault: Fault, n: u64) {
        self.faults[fault as usize].fetch_add(n, Ordering::Relaxed);
    }
}

impl LinkCounters {
    /// Takes a snapshot.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            tuples: self.tuples.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Accounts a whole frame at once while keeping the tuple as the
    /// accounting unit: `tuples` and `bytes` are the frame's per-tuple
    /// totals, so `LinkReport` figures are identical whether an edge ran
    /// batched or tuple-at-a-time.
    pub(crate) fn add_many(&self, tuples: u64, bytes: u64) {
        self.tuples.fetch_add(tuples, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Shared registry handed to every operator context; the engine builds one
/// per run and returns its snapshots in the [`crate::engine::RunReport`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    ops: Vec<Arc<OpCounters>>,
    links: Vec<Arc<LinkCounters>>,
}

impl MetricsRegistry {
    /// Registers counters for a new operator; returns its handle.
    pub fn register_op(&mut self) -> Arc<OpCounters> {
        let c = Arc::new(OpCounters::default());
        self.ops.push(Arc::clone(&c));
        c
    }

    /// Registers counters for a new link; returns its handle.
    pub fn register_link(&mut self) -> Arc<LinkCounters> {
        let c = Arc::new(LinkCounters::default());
        self.links.push(Arc::clone(&c));
        c
    }

    /// Snapshots every operator, in registration order.
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        self.ops.iter().map(|c| c.snapshot()).collect()
    }

    /// Snapshots every link, in registration order.
    pub fn link_snapshots(&self) -> Vec<LinkSnapshot> {
        self.links.iter().map(|c| c.snapshot()).collect()
    }
}

/// Windowed throughput measurement over a running engine, following the
/// paper's protocol ("the observations processing rate was measured as the
/// number of output tuples … averaged in 30 seconds after about 5 minutes
/// of processing"): snapshot counters at two instants and difference them.
#[derive(Debug, Clone)]
pub struct RateProbe {
    baseline: Vec<OpSnapshot>,
    taken_at: std::time::Instant,
}

impl RateProbe {
    /// Starts a measurement window from the given live snapshots.
    pub fn start(snapshots: Vec<OpSnapshot>) -> Self {
        RateProbe {
            baseline: snapshots,
            taken_at: std::time::Instant::now(),
        }
    }

    /// Ends the window: returns per-operator `tuples_in` rates (tuples/s),
    /// aligned with the snapshot order.
    ///
    /// Contract: `now_snapshots` must come from the **same registry** as the
    /// snapshots passed to [`RateProbe::start`], so both vectors have the
    /// same length and order (graphs are static, so operators are never
    /// added or removed mid-run). A length mismatch means the caller paired
    /// a probe with the wrong engine's snapshots; `zip` would silently drop
    /// the surplus operators, so this is a debug assertion rather than an
    /// accepted input.
    pub fn rates_in(&self, now_snapshots: &[OpSnapshot]) -> Vec<f64> {
        debug_assert_eq!(
            self.baseline.len(),
            now_snapshots.len(),
            "RateProbe::rates_in: snapshot count changed between start ({}) and now ({}); \
             both must come from the same MetricsRegistry",
            self.baseline.len(),
            now_snapshots.len()
        );
        let dt = self.taken_at.elapsed().as_secs_f64().max(1e-9);
        self.baseline
            .iter()
            .zip(now_snapshots)
            .map(|(b, n)| (n.tuples_in.saturating_sub(b.tuples_in)) as f64 / dt)
            .collect()
    }

    /// Aggregate input rate over operators selected by `pick` (e.g. all
    /// PCA replicas).
    pub fn total_rate_in(&self, now_snapshots: &[OpSnapshot], pick: impl Fn(usize) -> bool) -> f64 {
        self.rates_in(now_snapshots)
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, r)| r)
            .sum()
    }
}

/// Number of buckets in a [`LatencyHistogram`]: powers of two from 1µs
/// (bucket 0: `< 2·2¹⁰ ns`) up past 1s, plus an overflow bucket.
pub const LATENCY_BUCKETS: usize = 22;

/// A fixed-bucket latency histogram with lock-free, allocation-free
/// recording — the serving layer's per-endpoint latency tracker.
///
/// Buckets are powers of two in nanoseconds starting at 2¹¹ ns (~2µs):
/// bucket `i` counts samples in `[2^(10+i), 2^(11+i))` ns, bucket 0 also
/// absorbs everything faster, and the last bucket absorbs everything
/// slower (> ~4s). Quantiles are read as the upper bound of the bucket
/// containing the requested rank — a ≤ 2× overestimate by construction,
/// which is adequate for tail-latency reporting and costs no memory or
/// locking on the hot path.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // floor(log2(ns)) - 10, clamped into range.
        let log2 = 63 - (ns | 1).leading_zeros() as usize;
        log2.saturating_sub(10).min(LATENCY_BUCKETS - 1)
    }

    /// Upper bound (ns) of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        1u64 << (11 + i)
    }

    /// Records one sample. Lock-free, allocation-free.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, as the upper bound
    /// of the bucket holding that rank. Returns 0 with no samples.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(LATENCY_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = OpCounters::default();
        c.add_in();
        c.add_in();
        c.add_out();
        c.add_control();
        c.add_busy(500);
        let s = c.snapshot();
        assert_eq!(s.tuples_in, 2);
        assert_eq!(s.tuples_out, 1);
        assert_eq!(s.control_in, 1);
        assert_eq!(s.busy_ns, 500);
    }

    #[test]
    fn fault_rows_index_in_table_order() {
        for (i, f) in Fault::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i, "{f:?}");
        }
        let c = OpCounters::default();
        c.add(Fault::PeRestarts, 1);
        c.add(Fault::IoFaults, 3);
        c.add(Fault::IoFaults, 2);
        let s = c.snapshot();
        assert_eq!(s.faults[Fault::PeRestarts], 1);
        assert_eq!(s.faults[Fault::IoFaults], 5);
        assert_eq!(s.faults[Fault::Restarts], 0);
        let ops = [("a".to_string(), s), ("b".to_string(), s)];
        assert_eq!(FaultCounts::sum(&ops)[Fault::IoFaults], 10);
    }

    /// The summary line is byte-for-byte what the CLI printed before the
    /// fault table existed; scrapers read its positions.
    #[test]
    fn fault_summary_golden() {
        let mut c = FaultCounts::default();
        assert_eq!(c.summary(), None);
        c[Fault::Restarts] = 1;
        c[Fault::PeRestarts] = 2;
        c[Fault::Quarantined] = 3;
        c[Fault::SyncSkips] = 4;
        c[Fault::IoFaults] = 5;
        c[Fault::QuarantinedSnapshots] = 6;
        c[Fault::CheckpointSkips] = 7;
        c[Fault::ScaleOuts] = 8;
        c[Fault::ScaleIns] = 9;
        assert_eq!(
            c.summary().as_deref(),
            Some(
                "fault summary: 1 operator restarts, 2 PE restarts (operator-weighted), \
                 3 quarantined tuples, 4 skipped syncs, 5 storage faults absorbed, \
                 6 quarantined snapshots, 7 skipped checkpoints, 8 scale-outs, 9 scale-ins"
            )
        );
        let mut only_last = FaultCounts::default();
        only_last[Fault::ScaleIns] = 1;
        assert_eq!(
            only_last.summary().as_deref(),
            Some(
                "fault summary: 0 operator restarts, 0 PE restarts (operator-weighted), \
                 0 quarantined tuples, 0 skipped syncs, 0 storage faults absorbed, \
                 0 quarantined snapshots, 0 skipped checkpoints, 0 scale-outs, 1 scale-ins"
            )
        );
    }

    #[test]
    fn link_counts_tuples_and_bytes() {
        let l = LinkCounters::default();
        l.add_many(1, 100);
        l.add_many(1, 50);
        let s = l.snapshot();
        assert_eq!(s.tuples, 2);
        assert_eq!(s.bytes, 150);
    }

    #[test]
    fn link_frame_accounting_matches_per_tuple() {
        let per_tuple = LinkCounters::default();
        per_tuple.add_many(1, 100);
        per_tuple.add_many(1, 50);
        per_tuple.add_many(1, 50);
        let framed = LinkCounters::default();
        framed.add_many(3, 200);
        assert_eq!(per_tuple.snapshot(), framed.snapshot());
    }

    #[test]
    fn registry_orders_snapshots() {
        let mut r = MetricsRegistry::default();
        let a = r.register_op();
        let _b = r.register_op();
        a.add_in();
        let snaps = r.op_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].tuples_in, 1);
        assert_eq!(snaps[1].tuples_in, 0);
    }

    #[test]
    fn rate_probe_differences_counters() {
        let mk = |n: u64| OpSnapshot {
            tuples_in: n,
            ..OpSnapshot::default()
        };
        let probe = RateProbe::start(vec![mk(100), mk(50)]);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let rates = probe.rates_in(&[mk(300), mk(50)]);
        assert!(rates[0] > 0.0, "{rates:?}");
        assert_eq!(rates[1], 0.0);
        let total = probe.total_rate_in(&[mk(300), mk(150)], |i| i == 1);
        assert!(total > 0.0);
    }

    #[test]
    fn rate_probe_handles_counter_reset_gracefully() {
        let mk = |n: u64| OpSnapshot {
            tuples_in: n,
            ..OpSnapshot::default()
        };
        let probe = RateProbe::start(vec![mk(500)]);
        // A smaller later value (shouldn't happen, but must not underflow).
        let rates = probe.rates_in(&[mk(100)]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "snapshot count changed")]
    #[cfg(debug_assertions)]
    fn rate_probe_rejects_mismatched_snapshot_lengths() {
        let mk = |n: u64| OpSnapshot {
            tuples_in: n,
            ..OpSnapshot::default()
        };
        let probe = RateProbe::start(vec![mk(1), mk(2)]);
        let _ = probe.rates_in(&[mk(1)]);
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let mut r = MetricsRegistry::default();
        let h = r.register_op();
        let h2 = Arc::clone(&h);
        std::thread::spawn(move || {
            for _ in 0..100 {
                h2.add_in();
            }
        })
        .join()
        .unwrap();
        assert_eq!(r.op_snapshots()[0].tuples_in, 100);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        // 99 fast samples (~4µs) and one slow (~1ms).
        for _ in 0..99 {
            h.record_ns(4_000);
        }
        h.record_ns(1_000_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        let p999 = h.quantile_ns(0.999);
        assert!((4_000..=8_192).contains(&p50), "p50 = {p50}");
        assert!(p99 <= 8_192, "p99 = {p99}");
        assert!(p999 >= 1_000_000, "p999 = {p999}");
        assert!(p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn latency_histogram_bucket_edges() {
        let h = LatencyHistogram::new();
        h.record_ns(0); // clamps into bucket 0
        h.record_ns(u64::MAX); // clamps into the overflow bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) >= 1 << 31);
    }
}
