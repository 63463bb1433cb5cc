//! Deterministic fault injection and restart policy.
//!
//! A [`FaultPlan`] describes *reproducible* failures: the same plan on the
//! same seeded stream produces the same panic at the same tuple, the same
//! dropped message on the same link. Plans thread through
//! [`GraphBuilder`](crate::graph::GraphBuilder) so tests and benches can
//! exercise the supervisor (`catch_unwind` + restart-from-snapshot) and the
//! failure-aware synchronization without any randomness.
//!
//! ## Grammar
//!
//! A plan is a comma-separated list of fault entries:
//!
//! ```text
//! panic@OP:N            operator OP panics after processing its N-th data tuple
//! kill-pe@OP:N          the whole PE hosting OP dies after OP's N-th data tuple
//! poison-nan@OP:N       the N-th data tuple delivered to OP has NaN values
//! poison-inf@OP:N       the N-th data tuple delivered to OP has Inf values
//! stall@OP:N:MS         OP stalls MS milliseconds before its N-th data tuple
//! drop@FROM>TO:N        the N-th data tuple on cross-PE link FROM>TO is dropped
//! dup@FROM>TO:N         the N-th data tuple on link FROM>TO is delivered twice
//! delay@FROM>TO:N:MS    the N-th data tuple on link FROM>TO is held MS ms
//! io-enospc@pe:N        the N-th checkpoint-domain disk write fails ENOSPC
//! io-torn@pe:N          the N-th checkpoint-domain disk write lands torn
//! io-fsync-err          every fsync (file and directory) fails
//! io-corrupt@store:N    the N-th state-store disk write lands bit-rotted
//! io-crash@op:K         the K-th disk operation and every later one fails
//! net-drop-conn@link:N      the N-th frame write on each wire link drops the conn
//! net-partial-write@link:N  the N-th frame write lands half its bytes, then drops
//! ```
//!
//! `kill-pe` targets an *operator* (PE indices depend on fusion resolution
//! order and would make plans fragile): the fault tears down the entire
//! processing element that operator was fused into. The PE-level supervisor
//! then rebuilds every operator in the PE from its
//! [`Checkpoint`](crate::checkpoint::Checkpoint) snapshot; see the engine docs.
//!
//! Tuple indices `N` are 1-based and count *data* tuples only — control
//! traffic and punctuation are never faulted (a plan that corrupted EOS
//! would deadlock the graph rather than test recovery). Link faults apply
//! only to cross-PE edges: they model the network, and a fused edge has no
//! network to misbehave.
//!
//! The `io-*` kinds target the *storage layer* rather than an operator or
//! link: their "target" word names a fault domain (`pe` for checkpoint
//! blobs/manifests, `store` for backfill state files, `op` for the global
//! disk-operation counter) and their indices count disk writes/operations,
//! not tuples. They compile into an [`crate::vfs::IoFaultSpec`] via
//! [`FaultPlan::io_spec`] and are injected by [`crate::vfs::FaultVfs`].
//!
//! The `net-*` kinds target the *wire* the same way: the domain word
//! `link` covers every socket-backed cross-process link, and indices
//! count frame writes per link (monotone across reconnects, so a fault
//! fires exactly once). They compile into a
//! [`crate::netio::WireFaultSpec`] via [`FaultPlan::wire_spec`] and are
//! injected by the sender-side socket shim in [`crate::netio`].

use crate::netio::WireFaultSpec;
use crate::vfs::IoFaultSpec;
use std::time::Duration;

/// What a single fault does, once its trigger point is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the operator after it finishes processing tuple `N`.
    PanicAfter(u64),
    /// Kill the whole PE hosting the operator after it finishes processing
    /// tuple `N`. Unlike [`FaultAction::PanicAfter`] — which the
    /// operator-level supervisor isolates — this unwinds the PE's scheduler
    /// loop itself, exercising whole-PE teardown and checkpoint recovery.
    KillPe(u64),
    /// Replace tuple `N`'s values with NaN before delivery.
    PoisonNan(u64),
    /// Replace tuple `N`'s values with +Inf before delivery.
    PoisonInf(u64),
    /// Busy the operator for `ms` milliseconds before tuple `at`.
    Stall {
        /// 1-based data-tuple index that triggers the stall.
        at: u64,
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Drop the link's `N`-th data tuple.
    Drop(u64),
    /// Deliver the link's `N`-th data tuple twice.
    Duplicate(u64),
    /// Hold the link's `N`-th data tuple for `ms` milliseconds.
    Delay {
        /// 1-based data-tuple index that triggers the delay.
        at: u64,
        /// Delay duration in milliseconds.
        ms: u64,
    },
    /// The `N`-th checkpoint-domain disk write fails with `ENOSPC`.
    IoEnospc(u64),
    /// The `N`-th checkpoint-domain disk write lands torn (prefix only).
    IoTorn(u64),
    /// Every fsync (file and directory) fails.
    IoFsyncErr,
    /// The `N`-th state-store disk write lands with a flipped byte.
    IoCorrupt(u64),
    /// The `K`-th disk operation and every later one fails (crash).
    IoCrash(u64),
    /// The `N`-th frame write on a wire link drops the connection.
    NetDropConn(u64),
    /// The `N`-th frame write on a wire link lands half its bytes, then
    /// drops the connection.
    NetPartialWrite(u64),
}

impl FaultAction {
    /// True for actions that target an operator (vs. a link).
    pub fn is_op_action(&self) -> bool {
        matches!(
            self,
            FaultAction::PanicAfter(_)
                | FaultAction::KillPe(_)
                | FaultAction::PoisonNan(_)
                | FaultAction::PoisonInf(_)
                | FaultAction::Stall { .. }
        )
    }
}

/// The persistence domain a storage fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageDomain {
    /// PE checkpoint blobs and manifests.
    PeCheckpoint,
    /// Backfill state-store entries.
    StateStore,
    /// The global disk-operation counter (crash faults).
    AnyOp,
    /// Every domain at once (`io-fsync-err`).
    All,
}

/// What a fault applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// A named operator (panic / poison / stall).
    Op(String),
    /// A named cross-PE link (drop / dup / delay).
    Link {
        /// Producing operator's name.
        from: String,
        /// Consuming operator's name.
        to: String,
    },
    /// The storage layer (`io-*` faults). Not resolved against the graph:
    /// storage faults apply to whatever persistence the run performs.
    Storage(StorageDomain),
    /// The socket transport (`net-*` faults). Not resolved against the
    /// graph: wire faults apply to every socket-backed cross-process link
    /// the run establishes.
    Wire,
}

/// One injected fault: an action bound to a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The operator or link the fault applies to.
    pub target: FaultTarget,
    /// What happens at the trigger point.
    pub action: FaultAction,
}

/// A reproducible set of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, in spec order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the comma-separated fault grammar (see module docs). Errors
    /// name the offending entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut faults = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            faults.push(parse_entry(entry)?);
        }
        if faults.is_empty() {
            return Err(format!("fault spec '{spec}' contains no fault entries"));
        }
        Ok(FaultPlan { faults })
    }

    /// Rewrites every target name through `f` — used to map user-facing
    /// engine names (`engine1`) onto graph operator names (`pca-1`).
    pub fn rename_targets(mut self, f: impl Fn(&str) -> String) -> Self {
        for fault in &mut self.faults {
            match &mut fault.target {
                FaultTarget::Op(name) => *name = f(name),
                FaultTarget::Link { from, to } => {
                    *from = f(from);
                    *to = f(to);
                }
                // Storage domains and the wire are not operator names.
                FaultTarget::Storage(_) | FaultTarget::Wire => {}
            }
        }
        self
    }

    /// The op-targeted faults for operator `name`.
    pub fn op_faults(&self, name: &str) -> Vec<FaultAction> {
        self.faults
            .iter()
            .filter(|f| matches!(&f.target, FaultTarget::Op(n) if n == name))
            .map(|f| f.action.clone())
            .collect()
    }

    /// The link-targeted faults for the edge `from` → `to`.
    pub fn link_faults(&self, from: &str, to: &str) -> Vec<FaultAction> {
        self.faults
            .iter()
            .filter(
                |f| matches!(&f.target, FaultTarget::Link { from: a, to: b } if a == from && b == to),
            )
            .map(|f| f.action.clone())
            .collect()
    }

    /// Compiles the plan's storage faults into a VFS fault schedule, or
    /// `None` when the plan contains no `io-*` entries.
    pub fn io_spec(&self) -> Option<IoFaultSpec> {
        let mut spec = IoFaultSpec::default();
        let mut any = false;
        for fault in &self.faults {
            if !matches!(fault.target, FaultTarget::Storage(_)) {
                continue;
            }
            any = true;
            match fault.action {
                FaultAction::IoEnospc(n) => spec.enospc_pe.push(n),
                FaultAction::IoTorn(n) => spec.torn_pe.push(n),
                FaultAction::IoFsyncErr => spec.fsync_err = true,
                FaultAction::IoCorrupt(n) => spec.corrupt_store.push(n),
                FaultAction::IoCrash(k) => {
                    spec.crash_at_op = Some(match spec.crash_at_op {
                        Some(prev) => prev.min(k),
                        None => k,
                    })
                }
                _ => unreachable!("storage targets only carry io actions"),
            }
        }
        any.then_some(spec)
    }

    /// Compiles the plan's wire faults into a socket-shim fault schedule,
    /// or `None` when the plan contains no `net-*` entries.
    pub fn wire_spec(&self) -> Option<WireFaultSpec> {
        let mut spec = WireFaultSpec::default();
        let mut any = false;
        for fault in &self.faults {
            if fault.target != FaultTarget::Wire {
                continue;
            }
            any = true;
            match fault.action {
                FaultAction::NetDropConn(n) => spec.drop_conn.push(n),
                FaultAction::NetPartialWrite(n) => spec.partial_write.push(n),
                _ => unreachable!("wire targets only carry net actions"),
            }
        }
        any.then_some(spec)
    }
}

fn parse_entry(entry: &str) -> Result<Fault, String> {
    // `io-fsync-err` takes no target or argument — every fsync fails.
    if entry == "io-fsync-err" {
        return Ok(Fault {
            target: FaultTarget::Storage(StorageDomain::All),
            action: FaultAction::IoFsyncErr,
        });
    }
    let (kind, rest) = entry
        .split_once('@')
        .ok_or_else(|| format!("fault entry '{entry}': expected KIND@TARGET:ARGS"))?;
    let bad = |msg: &str| format!("fault entry '{entry}': {msg}");
    let parse_n = |s: &str, what: &str| -> Result<u64, String> {
        let n: u64 = s
            .parse()
            .map_err(|_| bad(&format!("{what} '{s}' is not a number")))?;
        if n == 0 {
            return Err(bad(&format!(
                "{what} must be ≥ 1 (tuple indices are 1-based)"
            )));
        }
        Ok(n)
    };
    let parse_ms = |s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| bad(&format!("duration '{s}' is not a number of milliseconds")))
    };

    let op_target = |t: &str| -> Result<FaultTarget, String> {
        if t.is_empty() {
            return Err(bad("empty operator name"));
        }
        if t.contains('>') {
            return Err(bad("operator fault cannot target a link (FROM>TO)"));
        }
        Ok(FaultTarget::Op(t.to_string()))
    };
    let link_target = |t: &str| -> Result<FaultTarget, String> {
        let (from, to) = t
            .split_once('>')
            .ok_or_else(|| bad("link fault needs a FROM>TO target"))?;
        if from.is_empty() || to.is_empty() {
            return Err(bad("link fault needs non-empty FROM and TO names"));
        }
        Ok(FaultTarget::Link {
            from: from.to_string(),
            to: to.to_string(),
        })
    };

    let parts: Vec<&str> = rest.split(':').collect();
    let (target, action) = match (kind, parts.as_slice()) {
        ("panic", [t, n]) => (
            op_target(t)?,
            FaultAction::PanicAfter(parse_n(n, "tuple index")?),
        ),
        ("kill-pe", [t, n]) => (
            op_target(t)?,
            FaultAction::KillPe(parse_n(n, "tuple index")?),
        ),
        ("poison-nan", [t, n]) => (
            op_target(t)?,
            FaultAction::PoisonNan(parse_n(n, "tuple index")?),
        ),
        ("poison-inf", [t, n]) => (
            op_target(t)?,
            FaultAction::PoisonInf(parse_n(n, "tuple index")?),
        ),
        ("stall", [t, n, ms]) => (
            op_target(t)?,
            FaultAction::Stall {
                at: parse_n(n, "tuple index")?,
                ms: parse_ms(ms)?,
            },
        ),
        ("drop", [t, n]) => (
            link_target(t)?,
            FaultAction::Drop(parse_n(n, "tuple index")?),
        ),
        ("dup", [t, n]) => (
            link_target(t)?,
            FaultAction::Duplicate(parse_n(n, "tuple index")?),
        ),
        ("delay", [t, n, ms]) => (
            link_target(t)?,
            FaultAction::Delay {
                at: parse_n(n, "tuple index")?,
                ms: parse_ms(ms)?,
            },
        ),
        ("io-enospc", ["pe", n]) => (
            FaultTarget::Storage(StorageDomain::PeCheckpoint),
            FaultAction::IoEnospc(parse_n(n, "write index")?),
        ),
        ("io-torn", ["pe", n]) => (
            FaultTarget::Storage(StorageDomain::PeCheckpoint),
            FaultAction::IoTorn(parse_n(n, "write index")?),
        ),
        ("io-corrupt", ["store", n]) => (
            FaultTarget::Storage(StorageDomain::StateStore),
            FaultAction::IoCorrupt(parse_n(n, "write index")?),
        ),
        ("io-crash", ["op", k]) => (
            FaultTarget::Storage(StorageDomain::AnyOp),
            FaultAction::IoCrash(parse_n(k, "operation index")?),
        ),
        ("net-drop-conn", ["link", n]) => (
            FaultTarget::Wire,
            FaultAction::NetDropConn(parse_n(n, "frame-write index")?),
        ),
        ("net-partial-write", ["link", n]) => (
            FaultTarget::Wire,
            FaultAction::NetPartialWrite(parse_n(n, "frame-write index")?),
        ),
        ("io-enospc" | "io-torn", _) => return Err(bad("expected KIND@pe:N")),
        ("io-corrupt", _) => return Err(bad("expected io-corrupt@store:N")),
        ("io-crash", _) => return Err(bad("expected io-crash@op:K")),
        ("net-drop-conn" | "net-partial-write", _) => return Err(bad("expected KIND@link:N")),
        ("io-fsync-err", _) => return Err(bad("io-fsync-err takes no target or argument")),
        ("panic" | "kill-pe" | "poison-nan" | "poison-inf" | "drop" | "dup", _) => {
            return Err(bad("expected KIND@TARGET:N"))
        }
        ("stall" | "delay", _) => return Err(bad("expected KIND@TARGET:N:MS")),
        (other, _) => {
            return Err(bad(&format!(
                "unknown fault kind '{other}' (expected panic, kill-pe, poison-nan, poison-inf, \
                 stall, drop, dup, delay, io-enospc, io-torn, io-fsync-err, io-corrupt, \
                 io-crash, net-drop-conn, or net-partial-write)"
            )))
        }
    };
    Ok(Fault { target, action })
}

/// Supervisor restart policy: how many times a panicking operator is
/// restarted, and with what capped exponential backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Maximum restarts before the operator is finished (EOS propagates).
    pub max_restarts: u64,
    /// Backoff before restart attempt k is `base · 2^(k−1)`, capped below.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
        }
    }
}

impl RestartPolicy {
    /// The backoff sleep before restart attempt `attempt` (1-based).
    pub fn backoff(&self, attempt: u64) -> Duration {
        let shift = attempt.saturating_sub(1).min(32) as u32;
        let grown = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        grown.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_fault_kind() {
        let plan = FaultPlan::parse(
            "panic@pca-1:5000, poison-nan@pca-0:17,poison-inf@pca-2:3, stall@pca-3:10:25, \
             drop@split>pca-1:7, dup@split>pca-2:9, delay@split>pca-0:11:5, kill-pe@pca-3:800",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 8);
        assert_eq!(
            plan.faults[0],
            Fault {
                target: FaultTarget::Op("pca-1".into()),
                action: FaultAction::PanicAfter(5000),
            }
        );
        assert_eq!(plan.faults[3].action, FaultAction::Stall { at: 10, ms: 25 });
        assert_eq!(
            plan.faults[4],
            Fault {
                target: FaultTarget::Link {
                    from: "split".into(),
                    to: "pca-1".into(),
                },
                action: FaultAction::Drop(7),
            }
        );
        assert_eq!(plan.faults[6].action, FaultAction::Delay { at: 11, ms: 5 });
        assert_eq!(
            plan.faults[7],
            Fault {
                target: FaultTarget::Op("pca-3".into()),
                action: FaultAction::KillPe(800),
            }
        );
        assert!(FaultAction::KillPe(1).is_op_action());
    }

    #[test]
    fn parses_every_io_fault_kind_into_a_spec() {
        let plan = FaultPlan::parse(
            "io-enospc@pe:3,io-torn@pe:7, io-fsync-err ,io-corrupt@store:2,io-crash@op:11",
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 5);
        assert_eq!(
            plan.faults[0].target,
            FaultTarget::Storage(StorageDomain::PeCheckpoint)
        );
        assert_eq!(plan.faults[2].action, FaultAction::IoFsyncErr);
        assert!(!FaultAction::IoCrash(1).is_op_action());
        let spec = plan.io_spec().unwrap();
        assert_eq!(spec.enospc_pe, vec![3]);
        assert_eq!(spec.torn_pe, vec![7]);
        assert!(spec.fsync_err);
        assert_eq!(spec.corrupt_store, vec![2]);
        assert_eq!(spec.crash_at_op, Some(11));
    }

    #[test]
    fn parses_wire_faults_into_a_spec() {
        let plan = FaultPlan::parse("net-drop-conn@link:3, net-partial-write@link:7").unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].target, FaultTarget::Wire);
        assert_eq!(plan.faults[0].action, FaultAction::NetDropConn(3));
        assert!(!FaultAction::NetDropConn(1).is_op_action());
        let spec = plan.wire_spec().unwrap();
        assert_eq!(spec.drop_conn, vec![3]);
        assert_eq!(spec.partial_write, vec![7]);
        assert!(plan.io_spec().is_none());
        // Wire targets survive renames untouched.
        let renamed = plan.rename_targets(|n| format!("x-{n}"));
        assert_eq!(renamed.faults[0].target, FaultTarget::Wire);
    }

    #[test]
    fn wire_faults_reject_malformed_entries() {
        for bad in [
            "net-drop-conn@pe:1",     // wrong domain word
            "net-drop-conn@link:0",   // indices are 1-based
            "net-partial-write@link", // missing index
            "net-drop-conn@a>b:1",    // wire faults take the link domain, not a named edge
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must be rejected");
        }
        assert!(FaultPlan::parse("panic@a:1").unwrap().wire_spec().is_none());
    }

    #[test]
    fn io_spec_is_none_without_storage_faults_and_takes_earliest_crash() {
        assert!(FaultPlan::parse("panic@a:1").unwrap().io_spec().is_none());
        let spec = FaultPlan::parse("io-crash@op:9,io-crash@op:4")
            .unwrap()
            .io_spec()
            .unwrap();
        assert_eq!(spec.crash_at_op, Some(4));
    }

    #[test]
    fn io_faults_mix_with_process_faults_and_survive_renames() {
        let plan = FaultPlan::parse("kill-pe@engine1:500,io-torn@pe:1")
            .unwrap()
            .rename_targets(|n| n.replace("engine", "pca-"));
        assert_eq!(plan.op_faults("pca-1"), vec![FaultAction::KillPe(500)]);
        assert_eq!(plan.io_spec().unwrap().torn_pe, vec![1]);
    }

    #[test]
    fn io_faults_reject_malformed_entries() {
        for bad in [
            "io-enospc@store:1", // wrong domain word
            "io-enospc@pe:0",    // indices are 1-based
            "io-torn@pe",        // missing index
            "io-corrupt@pe:1",   // corrupt is store-domain only
            "io-crash@pe:1",     // crash counts global ops
            "io-fsync-err@pe:1", // fsync-err takes no target
            "io-explode@pe:1",   // unknown kind
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn kill_pe_rejects_malformed_entries() {
        for bad in ["kill-pe@pca-1", "kill-pe@pca-1:0", "kill-pe@a>b:5"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn rejects_malformed_entries_naming_them() {
        for bad in [
            "panic@pca-1",      // missing tuple index
            "panic@pca-1:zero", // non-numeric index
            "panic@pca-1:0",    // indices are 1-based
            "panic@a>b:5",      // op fault on a link target
            "drop@pca-1:5",     // link fault without FROM>TO
            "drop@>pca-1:5",    // empty FROM
            "stall@pca-1:5",    // stall needs a duration
            "delay@a>b:5",      // delay needs a duration
            "explode@pca-1:5",  // unknown kind
            "panic",            // no target at all
            "",                 // no entries
            "   , ,",           // only empty entries
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            let probe = if bad.trim().trim_matches(',').trim().is_empty() {
                bad
            } else {
                bad.split(',').next().unwrap().trim()
            };
            assert!(
                err.contains(probe.trim()),
                "error for {bad:?} must name the entry, got: {err}"
            );
        }
    }

    #[test]
    fn rename_targets_rewrites_ops_and_links() {
        let plan = FaultPlan::parse("panic@engine1:5000,drop@split>engine2:3")
            .unwrap()
            .rename_targets(|n| n.replace("engine", "pca-"));
        assert_eq!(plan.op_faults("pca-1"), vec![FaultAction::PanicAfter(5000)]);
        assert_eq!(
            plan.link_faults("split", "pca-2"),
            vec![FaultAction::Drop(3)]
        );
        assert!(plan.op_faults("engine1").is_empty());
    }

    #[test]
    fn target_lookups_filter_by_name() {
        let plan = FaultPlan::parse("panic@a:1,panic@b:2,drop@a>b:3,dup@b>a:4").unwrap();
        assert_eq!(plan.op_faults("a"), vec![FaultAction::PanicAfter(1)]);
        assert_eq!(plan.op_faults("b"), vec![FaultAction::PanicAfter(2)]);
        assert_eq!(plan.link_faults("a", "b"), vec![FaultAction::Drop(3)]);
        assert_eq!(plan.link_faults("b", "a"), vec![FaultAction::Duplicate(4)]);
        assert!(plan.link_faults("a", "a").is_empty());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RestartPolicy {
            max_restarts: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(8));
        assert_eq!(p.backoff(5), Duration::from_millis(10)); // capped
        assert_eq!(p.backoff(64), Duration::from_millis(10)); // no overflow
    }
}
