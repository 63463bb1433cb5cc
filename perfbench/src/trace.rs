//! Spans the benchmark records around its own calls into the program's
//! layers: name, start, end and parent, kept in memory and written out
//! when the run ends. Nothing here reaches inside the program.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices (into `SPANS`) of the spans open on this thread.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns span recording on or off (off: [`span`] only times its call).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Runs `f` inside a span named `name` and returns its result and
/// duration. The span's parent is the innermost span open on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
    if !enabled() {
        let t = Instant::now();
        let r = f();
        return (r, t.elapsed());
    }
    let start = Instant::now();
    let idx = {
        let mut spans = SPANS.lock().expect("span list poisoned");
        let parent = OPEN.with(|o| o.borrow().last().copied());
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    let r = f();
    let end = Instant::now();
    OPEN.with(|o| o.borrow_mut().pop());
    SPANS.lock().expect("span list poisoned")[idx].end = end;
    (r, end - start)
}

/// Number of spans recorded so far.
pub fn count() -> usize {
    SPANS.lock().expect("span list poisoned").len()
}

/// Writes every recorded span as a JSON array of
/// `{"id", "name", "parent", "start_us", "end_us", "self_us"}`, times
/// relative to `origin`. Self time is the span's duration minus the time
/// its child spans cover.
pub fn write(path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
    let spans = SPANS.lock().expect("span list poisoned");
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            child_us[p] += (s.end - s.start).as_secs_f64() * 1e6;
        }
    }
    let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let dur = (s.end - s.start).as_secs_f64() * 1e6;
        let _ = writeln!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {:.3}, \
             \"end_us\": {:.3}, \"self_us\": {:.3}}}{}",
            s.name,
            us(s.start),
            us(s.end),
            dur - child_us[i],
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}
