//! The operator abstraction and its execution context.
//!
//! Operators are the InfoSphere building block: stateful objects with a
//! data port, a control port, and any number of output ports. Sources are
//! operators that are *driven* by the engine instead of fed (InfoSphere
//! source operators poll their underlying file/socket the same way).

use crate::metrics::{Fault, OpCounters};
use crate::tuple::{ControlTuple, DataTuple, Tuple};

/// What a source produced when driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// Emitted at least one tuple; drive again as soon as possible.
    Emitted,
    /// Nothing available right now; drive again after a short yield.
    Idle,
    /// The source is exhausted; end-of-stream follows.
    Done,
}

/// A dataflow operator.
///
/// `process` handles data-port tuples, `on_control` control-port tuples.
/// Sources override `drive`. All methods receive an [`OpContext`] for
/// emitting to output ports.
pub trait Operator: Send {
    /// Handles one data tuple.
    fn process(&mut self, tuple: DataTuple, ctx: &mut OpContext<'_>);

    /// Handles one control tuple. Default: ignore.
    fn on_control(&mut self, _tuple: ControlTuple, _ctx: &mut OpContext<'_>) {}

    /// Produces tuples when registered as a source. Default: immediately
    /// exhausted (non-source operators never get driven anyway).
    fn drive(&mut self, _ctx: &mut OpContext<'_>) -> SourceState {
        SourceState::Done
    }

    /// Called once before any tuple flows.
    fn on_start(&mut self, _ctx: &mut OpContext<'_>) {}

    /// Called once when the operator's inputs have all closed (or, for a
    /// source, when it reported `Done` / the engine stopped it), before
    /// end-of-stream propagates downstream. Emit final results here.
    fn on_finish(&mut self, _ctx: &mut OpContext<'_>) {}

    /// Called by the supervisor after this operator panicked and was
    /// isolated via `catch_unwind`. Restore internal state (e.g. rehydrate
    /// from an on-disk snapshot) and return `true` to resume processing;
    /// return `false` (the default) to finish the operator instead —
    /// end-of-stream then propagates as if its inputs had closed.
    /// `attempt` is the 1-based restart attempt number.
    fn recover(&mut self, _attempt: u64) -> bool {
        false
    }

    /// Exposes this operator's [`Checkpoint`](crate::checkpoint::Checkpoint)
    /// facet, if it has durable state. The PE-level supervisor snapshots
    /// every checkpointable operator into the per-PE manifest and restores
    /// them all together after a whole-PE restart. Stateless operators keep
    /// the default `None` and are simply re-entered as-is.
    ///
    /// (A separate method rather than a trait upcast because Rust cannot
    /// cross-cast `&mut dyn Operator` to `&mut dyn Checkpoint`.)
    fn checkpoint(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpoint> {
        None
    }
}

/// Engine-side sink the context forwards emissions to.
pub(crate) trait EmitSink {
    /// Blocking emit to an output port (fans out to every connected edge).
    fn emit(&mut self, port: usize, t: Tuple);
    /// Non-blocking emit; returns the tuple back if *any* target edge is
    /// full (nothing is sent in that case).
    fn try_emit(&mut self, port: usize, t: Tuple) -> Result<(), Tuple>;
    /// Queue depth of the cross-PE channel behind a port, if the port has
    /// exactly one remote target (used by load-balancing splits).
    fn backlog(&self, port: usize) -> Option<usize>;
    /// Number of output ports wired for this operator.
    fn n_ports(&self) -> usize;
    /// True once the engine has requested a cooperative stop.
    fn stop_requested(&self) -> bool;
    /// Flushes any transport-level output batching so previously emitted
    /// tuples become visible downstream immediately. Default: no-op (test
    /// sinks and fused hand-offs have no buffering).
    fn flush_downstream(&mut self) {}
}

/// The context passed to every operator callback.
pub struct OpContext<'a> {
    pub(crate) sink: &'a mut dyn EmitSink,
    pub(crate) counters: &'a OpCounters,
}

impl<'a> OpContext<'a> {
    pub(crate) fn new(sink: &'a mut dyn EmitSink, counters: &'a OpCounters) -> Self {
        OpContext { sink, counters }
    }

    /// Emits a tuple on `port`, blocking if a downstream queue is full
    /// (backpressure).
    pub fn emit(&mut self, port: usize, t: Tuple) {
        if matches!(t, Tuple::Data(_)) {
            self.counters.add_out();
        }
        self.sink.emit(port, t);
    }

    /// Emits a data tuple on `port`.
    pub fn emit_data(&mut self, port: usize, d: DataTuple) {
        self.emit(port, Tuple::Data(d));
    }

    /// Emits a control tuple on `port`.
    pub fn emit_control(&mut self, port: usize, c: ControlTuple) {
        self.emit(port, Tuple::Control(c));
    }

    /// Non-blocking emit: if the downstream queue is full the tuple is
    /// handed back and nothing is sent. This is the primitive behind the
    /// threaded split's "push the data to multiple targets without blocking
    /// the queue on one target".
    pub fn try_emit(&mut self, port: usize, t: Tuple) -> Result<(), Tuple> {
        let is_data = matches!(t, Tuple::Data(_));
        match self.sink.try_emit(port, t) {
            Ok(()) => {
                if is_data {
                    self.counters.add_out();
                }
                Ok(())
            }
            Err(t) => Err(t),
        }
    }

    /// Forces any transport-level output batching to flush now. Control
    /// tuples and end-of-stream flush on their own; call this only when a
    /// *data* tuple must be visible downstream before the operator returns
    /// (e.g. a snapshot emitted mid-stream that a monitor is waiting on).
    pub fn flush(&mut self) {
        self.sink.flush_downstream();
    }

    /// Downstream queue depth behind `port` (None for fused/fan-out ports).
    /// For batched cross-PE edges this counts both the tuples still in the
    /// local output buffer and those in flight in the channel.
    pub fn backlog(&self, port: usize) -> Option<usize> {
        self.sink.backlog(port)
    }

    /// Number of output ports wired to this operator.
    pub fn n_out_ports(&self) -> usize {
        self.sink.n_ports()
    }

    /// True once a cooperative stop was requested (long-running sources
    /// should wind down promptly).
    pub fn stop_requested(&self) -> bool {
        self.sink.stop_requested()
    }

    /// Counts one `fault` event (a quarantined tuple, a skipped sync, a
    /// scale event, …) against this operator; it shows up in the
    /// operator's `OpSnapshot::faults` and in [`crate::RunReport::faults`].
    pub fn count(&self, fault: Fault) {
        self.counters.add(fault, 1);
    }
}

/// Test harness for operator unit tests: an in-memory sink capturing
/// emissions per port, so operators can be exercised without a running
/// engine. Used by this crate's tests and by downstream crates
/// (`spca-engine`) to unit-test their custom operators.
pub mod testing {
    use super::*;
    use std::collections::VecDeque;

    /// Observer callback for [`CaptureSink::on_emit`].
    pub type EmitObserver = Box<dyn FnMut(usize, &Tuple)>;

    /// An in-memory sink capturing emissions per port.
    pub struct CaptureSink {
        /// Captured tuples, per output port.
        pub ports: Vec<VecDeque<Tuple>>,
        /// Ports simulated as full (try_emit fails there).
        pub full_ports: Vec<bool>,
        /// Simulated cooperative-stop flag.
        pub stop: bool,
        /// Observer invoked on every successful emit, before the tuple is
        /// stored. Lets tests assert invariants *at send time* — e.g. that
        /// an operator is not holding its state lock across a port send.
        pub on_emit: Option<EmitObserver>,
    }

    impl CaptureSink {
        /// A sink with `n_ports` output ports.
        pub fn new(n_ports: usize) -> Self {
            CaptureSink {
                ports: (0..n_ports).map(|_| VecDeque::new()).collect(),
                full_ports: vec![false; n_ports],
                stop: false,
                on_emit: None,
            }
        }

        /// The data tuples captured on `port`, in order.
        pub fn data_at(&self, port: usize) -> Vec<DataTuple> {
            self.ports[port]
                .iter()
                .filter_map(|t| match t {
                    Tuple::Data(d) => Some(d.clone()),
                    _ => None,
                })
                .collect()
        }
    }

    impl EmitSink for CaptureSink {
        fn emit(&mut self, port: usize, t: Tuple) {
            if let Some(hook) = &mut self.on_emit {
                hook(port, &t);
            }
            self.ports[port].push_back(t);
        }

        fn try_emit(&mut self, port: usize, t: Tuple) -> Result<(), Tuple> {
            if self.full_ports[port] {
                Err(t)
            } else {
                if let Some(hook) = &mut self.on_emit {
                    hook(port, &t);
                }
                self.ports[port].push_back(t);
                Ok(())
            }
        }

        fn backlog(&self, port: usize) -> Option<usize> {
            Some(self.ports[port].len())
        }

        fn n_ports(&self) -> usize {
            self.ports.len()
        }

        fn stop_requested(&self) -> bool {
            self.stop
        }
    }

    /// Runs a closure with a context over a capture sink and returns the
    /// sink for inspection.
    pub fn with_ctx<F: FnOnce(&mut OpContext<'_>)>(n_ports: usize, f: F) -> CaptureSink {
        let mut sink = CaptureSink::new(n_ports);
        with_sink(&mut sink, f);
        sink
    }

    /// Like [`with_ctx`] but over a caller-prepared sink, so tests can
    /// install an [`CaptureSink::on_emit`] observer (or pre-fill
    /// `full_ports`) before the operator runs.
    pub fn with_sink<F: FnOnce(&mut OpContext<'_>)>(sink: &mut CaptureSink, f: F) {
        let counters = OpCounters::default();
        let mut ctx = OpContext::new(sink, &counters);
        f(&mut ctx);
    }

    /// Like [`with_sink`] but with caller-owned counters, so tests can
    /// assert on quarantine/sync-skip accounting after the operator ran.
    pub fn with_sink_counters<F: FnOnce(&mut OpContext<'_>)>(
        sink: &mut CaptureSink,
        counters: &OpCounters,
        f: F,
    ) {
        let mut ctx = OpContext::new(sink, counters);
        f(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;

    #[test]
    fn emit_fans_into_capture() {
        let sink = with_ctx(2, |ctx| {
            ctx.emit_data(0, DataTuple::new(1, vec![1.0]));
            ctx.emit_data(1, DataTuple::new(2, vec![2.0]));
            ctx.emit_data(1, DataTuple::new(3, vec![3.0]));
        });
        assert_eq!(sink.data_at(0).len(), 1);
        assert_eq!(sink.data_at(1).len(), 2);
        assert_eq!(sink.data_at(1)[1].seq, 3);
    }

    #[test]
    fn try_emit_full_port_returns_tuple() {
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(1);
        sink.full_ports[0] = true;
        let mut ctx = OpContext::new(&mut sink, &counters);
        let res = ctx.try_emit(0, Tuple::Data(DataTuple::new(9, vec![])));
        match res {
            Err(Tuple::Data(d)) => assert_eq!(d.seq, 9),
            other => panic!("expected tuple back, got {other:?}"),
        }
        assert_eq!(counters.snapshot().tuples_out, 0);
    }

    #[test]
    fn counters_track_data_not_control() {
        let counters = OpCounters::default();
        let mut sink = CaptureSink::new(1);
        {
            let mut ctx = OpContext::new(&mut sink, &counters);
            ctx.emit_data(0, DataTuple::new(0, vec![]));
            ctx.emit_control(0, ControlTuple::signal(0, 0));
        }
        let s = counters.snapshot();
        assert_eq!(s.tuples_out, 1);
    }
}
