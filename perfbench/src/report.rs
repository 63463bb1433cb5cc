//! Metric names (the contract `BENCHMARK.json` lists), correctness checks
//! and the final JSON line.

use crate::stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("result_p50_ms", "ms"),
    ("response_p50_ms", "ms"),
    ("cpu_s", "CPU-s"),
    ("peak_rss_mb", "MB"),
];

/// Operators whose `RunReport` counters are reported per layer.
pub const OPS: [&str; 7] = [
    "source",
    "split",
    "pca-0",
    "pca-1",
    "sync-controller",
    "monitor",
    "snapshot-writer",
];

/// Per-layer metrics other than the per-operator ones, with their units.
const PER_LAYER_FIXED: [(&str, &str); 38] = [
    ("spectra.io.parse_us_per_row", "us"),
    ("core.robust.update_us_per_tuple", "us"),
    ("core.merge.ms_per_merge", "ms"),
    ("core.query.project_us", "us"),
    ("core.query.score_us", "us"),
    ("engine.sync.shares", "count"),
    ("engine.sync.merges", "count"),
    ("engine.sync.skips", "count"),
    ("streams.op.sync-controller.busy_s", "s"),
    ("streams.link.bytes_per_tuple", "bytes"),
    ("streams.link.tuples", "count"),
    ("streams.codec.encode_us_per_frame", "us"),
    ("streams.codec.decode_us_per_frame", "us"),
    ("engine.persist.encode_ms", "ms"),
    ("engine.persist.decode_ms", "ms"),
    ("engine.persist.snapshot_bytes", "bytes"),
    ("streams.checkpoint.generations", "count"),
    ("streams.checkpoint.skips", "count"),
    ("engine.epoch.published", "count"),
    ("engine.epoch.publish_interval_ms", "ms"),
    ("engine.epoch.pin_ns", "ns"),
    ("streams.http.server_p50_us", "us"),
    ("streams.http.server_p99_us", "us"),
    ("streams.http.accepted", "count"),
    ("streams.http.served", "count"),
    ("streams.http.shed", "count"),
    ("streams.http.rate_limited", "count"),
    ("loadgen.ingest_late_p99_ms", "ms"),
    ("loadgen.query_late_p99_ms", "ms"),
    ("engine.backfill.partition_s", "s"),
    ("engine.backfill.fit_s_per_partition", "s"),
    ("streams.backfill.cache_hits", "count"),
    ("streams.backfill.computed", "count"),
    ("streams.backfill.quarantined", "count"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.threads_peak", "count"),
    ("trace.overhead", "ratio"),
];

/// Every per-layer metric a traced run prints, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for op in OPS {
        v.push((format!("streams.op.{op}.busy_share"), "fraction"));
        v.push((format!("streams.op.{op}.tuples_in"), "count"));
        v.push((format!("streams.op.{op}.control_in"), "count"));
    }
    v.extend(PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Metric values by name, the operation tally and the correctness verdict.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    pub tally: Tally,
    pub correct: bool,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a correctness check: prints it, and a failure marks the
    /// run incorrect and counts in `error_ratio`.
    pub fn check(&mut self, what: &str, passed: bool, detail: impl std::fmt::Display) {
        println!(
            "check {}: {what} ({detail})",
            if passed { "ok  " } else { "FAIL" }
        );
        self.tally.check(passed);
        if !passed {
            self.correct = false;
        }
    }

    /// The final JSON line over `names`. A name without a value is a bug
    /// in the benchmark and is reported as such.
    pub fn json_line(&self, names: &[(String, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number ({v})"));
            }
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.tally.attempted, self.tally.failed
        ))
    }
}

/// `END_TO_END` with owned names, in the shape [`Report::json_line`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "…"` values in `text`, in order.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn output_names_match_benchmark_json() {
        let text = benchmark_json();
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end");
        let layer_at = text.find("\"per_layer\"").expect("per_layer");
        assert!(e2e_at < layer_at, "end_to_end listed before per_layer");
        let e2e: Vec<String> = names_in(&text[e2e_at..layer_at]);
        let layer: Vec<String> = names_in(&text[layer_at..]);
        let ours: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(e2e, ours);
        let ours: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(layer, ours);
        // Units too: each listed unit follows its name.
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let at = text.find(&format!("\"name\": \"{name}\"")).expect("listed");
            let rest = &text[at..];
            let entry = &rest[..rest.find('}').expect("entry end")];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit {unit} not in {entry}"
            );
        }
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let text = benchmark_json();
        let w = &text[text.find("\"workloads\"").expect("workloads")
            ..text.find("\"end_to_end\"").expect("end_to_end")];
        assert_eq!(names_in(w), crate::WORKLOADS);
    }

    #[test]
    fn json_line_has_every_metric_and_rejects_missing_ones() {
        let mut r = Report::new();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            r.set(*n, 1.5 + i as f64);
        }
        r.tally.ops(10, 9);
        let line = r.json_line(&end_to_end()).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r.json_line(&per_layer()).is_err());
        r.set("setup_s", f64::NAN);
        assert!(r.json_line(&end_to_end()).is_err());
    }
}
