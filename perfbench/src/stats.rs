//! The benchmark's arithmetic: percentiles under the "at least ten
//! samples beyond" rule, open-loop due times and lateness, and the
//! failure accounting behind `error_ratio`.

use std::time::{Duration, Instant};

/// Percentiles a tail may be reported at, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];
/// A reported percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted `v` (`0 < pct <= 100`).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n > 0` samples (the
/// small tolerance keeps `99.9 % of 10000` at rank 9990 despite rounding).
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank; `None` when
/// even the 90th does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Median plus the tail percentile the sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when there are too few samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            return Summary {
                n: 0,
                median: f64::NAN,
                tail: None,
            };
        }
        Summary {
            n: v.len(),
            median: median_sorted(&v),
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        }
    }

    /// `p50 = …, p99 = … (n = …)` with `unit` appended to each value.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} = {v:.6} {unit}"),
            None => format!(" (fewer than {} samples beyond p90)", MIN_BEYOND),
        };
        format!("p50 = {:.6} {unit}{tail} (n = {})", self.median, self.n)
    }
}

/// Median of sorted samples (mean of the middle two for even counts).
fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of unsorted samples; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// An open-loop schedule: event `i` is due at `start + i / rate`,
/// whatever happened to earlier events.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }

    /// How many events are due by `now` (events `0..count`).
    pub fn due_count(&self, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        (elapsed * self.rate_per_s).floor() as u64 + 1
    }

    /// How late an event due at `i` ran when it happened at `at`; zero
    /// for an event that happened early.
    pub fn lateness(&self, i: u64, at: Instant) -> Duration {
        at.saturating_duration_since(self.due(i))
    }
}

/// Failed ÷ attempted operations over every kind of operation a workload
/// performs: tuples offered, queries sent after the first epoch,
/// partitions fitted, and the correctness checks themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// `attempted` operations of which `succeeded` went through; more
    /// successes than attempts (duplicates) count as failures too.
    pub fn ops(&mut self, attempted: u64, succeeded: u64) {
        self.attempted += attempted;
        self.failed += attempted.abs_diff(succeeded);
    }

    /// One correctness check.
    pub fn check(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
    }

    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 has rank 90 and 9 beyond, so no tail yet.
        assert_eq!(tail_percentile(99), None);
        // 100 samples: p90 ranks 90th with exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        // p99 needs 1000 (rank 990, 10 beyond); 999 stays at p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let s = Summary::of(&v);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.n, 100);
        // Too few samples: a median but no tail, and NaNs are dropped.
        let s = Summary::of(&[3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
    }

    #[test]
    fn open_loop_due_times_ignore_progress() {
        let start = Instant::now();
        let s = Schedule {
            start,
            rate_per_s: 1000.0,
        };
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(250), start + Duration::from_millis(250));
        assert_eq!(s.due_count(start), 1);
        assert_eq!(s.due_count(start + Duration::from_micros(2500)), 3);
        // A stall delays the send, not the due time: the lateness grows.
        let at = start + Duration::from_millis(40);
        assert_eq!(s.lateness(10, at), Duration::from_millis(30));
        assert_eq!(s.lateness(100, at), Duration::ZERO);
    }

    #[test]
    fn error_ratio_counts_losses_duplicates_and_checks() {
        let mut t = Tally::default();
        assert_eq!(t.error_ratio(), 0.0);
        t.ops(1000, 1000);
        assert_eq!(t.error_ratio(), 0.0);
        t.ops(100, 97); // three tuples lost
        t.ops(10, 12); // two duplicates
        t.check(true);
        t.check(false);
        assert_eq!(
            t,
            Tally {
                attempted: 1112,
                failed: 6
            }
        );
        assert!((t.error_ratio() - 6.0 / 1112.0).abs() < 1e-15);
    }
}
