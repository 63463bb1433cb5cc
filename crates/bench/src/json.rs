//! Minimal JSON support and the schema table for the recorded benchmark
//! artifacts.
//!
//! The workspace deliberately carries no serialization dependency, so the
//! `BENCH_*.json` files are written and re-validated with this small
//! hand-rolled value type. Every artifact names its schema in a
//! `"schema"` field; the `SCHEMAS` table gives each schema's fields, their kinds
//! and the gates its numbers must pass, and [`check`] walks that table.
//! The `fig_*` writers and the `check_bench_json` CI gate both go
//! through [`check`], so a recording cannot pass one and fail the other.

use std::fmt;
use std::path::{Path, PathBuf};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Take the longest escape-free UTF-8 run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Builds a JSON number from any numeric field of a recording.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// The kind of value a field must hold.
enum Kind {
    /// A string.
    Str,
    /// A finite number.
    Num,
    /// A non-negative integer.
    Count,
    /// `true` or `false`.
    Bool,
    /// A non-empty array of objects, each of the given shape.
    Rows(Shape),
}

/// Names a field: its key in the object being checked, or
/// `rows[key=value,...].field` for a field of the one row of the
/// top-level array `rows` whose keys hold those values.
type FieldRef = &'static str;

/// A recorded claim the artifact's numbers must uphold.
enum Gate {
    /// Each field is greater than 0.
    Positive(&'static [FieldRef]),
    /// Each field is exactly 0: what a fault-free, allocation-free
    /// recording shows.
    Zero(&'static [FieldRef]),
    /// `field` equals `numerator / denominator` within [`RATIO_TOLERANCE`].
    Ratio(FieldRef, FieldRef, FieldRef),
    /// `field >= floor`, unless the waiver holds; a waived bound does not
    /// read its field.
    Floor(FieldRef, f64, Option<Waiver>),
    /// `field <= ceiling`, unless the waiver holds.
    Ceiling(FieldRef, f64, Option<Waiver>),
    /// The fields are non-decreasing in the order given.
    Ascending(&'static [FieldRef]),
    /// The two fields are equal.
    Equal(FieldRef, FieldRef),
    /// The row `rows[key=value,...]` exists, even where a waiver lifts
    /// the bound on it.
    Row(&'static str),
}

/// A host condition under which a floor or ceiling is unmeasurable, and
/// so waived rather than failed.
enum Waiver {
    /// The field is below the value, e.g. `cores < 4`: thread-level
    /// scaling needs physical cores to show.
    Below(FieldRef, f64),
    /// The field equals the string, e.g. `backend == "scalar"`: there is
    /// no SIMD backend to be faster.
    Is(FieldRef, &'static str),
}

impl fmt::Display for Waiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Below(field, x) => write!(f, "{field} < {x}"),
            Is(field, s) => write!(f, "{field} == \"{s}\""),
        }
    }
}

/// The fields of one JSON object, with their kinds, and the gates its
/// values must pass.
struct Shape {
    /// Every required field, in the order writers emit them.
    fields: &'static [(&'static str, Kind)],
    /// Checked after every field has its kind.
    gates: &'static [Gate],
}

/// Relative tolerance of a [`Gate::Ratio`]: recorded ratios are computed
/// from unrounded values, so anything further off was edited or mis-wired.
const RATIO_TOLERANCE: f64 = 0.02;

use Gate::*;
use Kind::*;
use Waiver::*;

/// Every artifact schema, keyed by the value of its `"schema"` field.
/// Adding an artifact means one entry here plus the writer that records
/// it through [`write_artifact`].
static SCHEMAS: &[(&str, Shape)] = &[
    (
        // `BENCH_engine.json`: cross-PE batching holds its speedup on the
        // full application graph.
        "engine-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("tuples", Count),
                ("dim", Count),
                ("batch", Count),
                ("target", Str),
                ("restarts", Count),
                ("pe_restarts", Count),
                (
                    "results",
                    Rows(Shape {
                        fields: &[
                            ("config", Str),
                            ("fused", Bool),
                            ("engines", Count),
                            ("batch1_tuples_per_s", Num),
                            ("batched_tuples_per_s", Num),
                            ("speedup", Num),
                        ],
                        gates: &[
                            Positive(&["engines", "batch1_tuples_per_s", "batched_tuples_per_s"]),
                            Ratio("speedup", "batched_tuples_per_s", "batch1_tuples_per_s"),
                        ],
                    }),
                ),
            ],
            gates: &[
                Positive(&["tuples"]),
                Floor("batch", 2.0, None),
                Zero(&["restarts", "pe_restarts"]),
            ],
        },
    ),
    (
        // `BENCH_hotpath.json`: the robust update's hot-path rewrite,
        // before vs after, from `cargo bench --bench update_cost`.
        "hotpath-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("change", Str),
                ("target", Str),
                (
                    "results",
                    Rows(Shape {
                        fields: &[
                            ("dim", Count),
                            ("before_median_ns", Num),
                            ("after_median_ns", Num),
                            ("speedup", Num),
                        ],
                        gates: &[
                            Positive(&["dim", "before_median_ns", "after_median_ns"]),
                            Ratio("speedup", "before_median_ns", "after_median_ns"),
                        ],
                    }),
                ),
                ("allocation_guard", Str),
            ],
            gates: &[
                Row("results[dim=1000]"),
                Floor("results[dim=1000].speedup", 1.5, None),
            ],
        },
    ),
    (
        // `BENCH_kernels.json`: the dispatched SIMD kernels beat the
        // scalar fallback where the engine spends its time.
        "kernels-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("backend", Str),
                ("reps", Count),
                ("target", Str),
                (
                    "results",
                    Rows(Shape {
                        fields: &[
                            ("kernel", Str),
                            ("d", Count),
                            ("scalar_ns", Num),
                            ("dispatched_ns", Num),
                            ("speedup", Num),
                        ],
                        gates: &[
                            Positive(&["d", "scalar_ns", "dispatched_ns"]),
                            Ratio("speedup", "scalar_ns", "dispatched_ns"),
                        ],
                    }),
                ),
            ],
            gates: &[
                Positive(&["reps"]),
                Row("results[kernel=dot,d=1000]"),
                Row("results[kernel=gemm,d=1000]"),
                Floor(
                    "results[kernel=dot,d=1000].speedup",
                    1.5,
                    Some(Is("backend", "scalar")),
                ),
                Floor(
                    "results[kernel=gemm,d=1000].speedup",
                    1.5,
                    Some(Is("backend", "scalar")),
                ),
            ],
        },
    ),
    (
        // `BENCH_backfill.json`: parallel scaling, a warm store that is
        // all cache hits, and O(partition) incrementality.
        "backfill-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("cores", Count),
                ("partitions", Count),
                ("rows", Count),
                ("dim", Count),
                ("target", Str),
                ("restarts", Count),
                ("pe_restarts", Count),
                (
                    "scaling",
                    Rows(Shape {
                        fields: &[("workers", Count), ("wall_s", Num), ("speedup", Num)],
                        gates: &[
                            Positive(&["workers", "wall_s"]),
                            Ratio("speedup", "scaling[workers=1].wall_s", "wall_s"),
                        ],
                    }),
                ),
                ("cold_wall_s", Num),
                ("warm_wall_s", Num),
                ("warm_speedup", Num),
                ("warm_cache_hits", Count),
                ("incremental_added", Count),
                ("incremental_recomputed", Count),
            ],
            gates: &[
                Positive(&[
                    "cores",
                    "partitions",
                    "cold_wall_s",
                    "warm_wall_s",
                    "incremental_added",
                ]),
                Zero(&["restarts", "pe_restarts"]),
                Equal("warm_cache_hits", "partitions"),
                Ratio("warm_speedup", "cold_wall_s", "warm_wall_s"),
                Floor("warm_speedup", 10.0, None),
                Equal("incremental_recomputed", "incremental_added"),
                Row("scaling[workers=1]"),
                Row("scaling[workers=4]"),
                Floor("scaling[workers=4].speedup", 2.5, Some(Below("cores", 4.0))),
            ],
        },
    ),
    (
        // `BENCH_serving.json`: serving sustains its query load without
        // costing ingest more than 10%.
        "serving-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("cores", Count),
                ("dim", Count),
                ("tuples", Count),
                ("target", Str),
                ("restarts", Count),
                ("pe_restarts", Count),
                ("clients", Count),
                ("requests", Count),
                ("qps", Num),
                ("p50_us", Num),
                ("p99_us", Num),
                ("p999_us", Num),
                ("baseline_tuples_per_s", Num),
                ("serving_tuples_per_s", Num),
                ("ingest_ratio", Num),
            ],
            gates: &[
                Positive(&[
                    "cores",
                    "dim",
                    "tuples",
                    "clients",
                    "requests",
                    "qps",
                    "p50_us",
                    "baseline_tuples_per_s",
                    "serving_tuples_per_s",
                ]),
                Zero(&["restarts", "pe_restarts"]),
                Ascending(&["p50_us", "p99_us", "p999_us"]),
                Ratio(
                    "ingest_ratio",
                    "serving_tuples_per_s",
                    "baseline_tuples_per_s",
                ),
                Floor("ingest_ratio", 0.9, Some(Below("cores", 4.0))),
            ],
        },
    ),
    (
        // `BENCH_net.json`: the columnar codec beats CSV without
        // allocating, and real loopback processes keep half the
        // in-process throughput.
        "net-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("cores", Count),
                ("dim", Count),
                ("batch", Count),
                ("tuples", Count),
                ("target", Str),
                ("restarts", Count),
                ("codec_encode_gbps", Num),
                ("codec_decode_gbps", Num),
                ("codec_roundtrip_tuples_per_s", Num),
                ("csv_roundtrip_tuples_per_s", Num),
                ("codec_vs_csv", Num),
                ("codec_steady_allocs", Count),
                ("frame_bytes_per_tuple", Num),
                ("local_tuples_per_s", Num),
                ("dist_tuples_per_s", Num),
                ("dist_ratio", Num),
                ("per_message_overhead_us", Num),
            ],
            gates: &[
                Positive(&[
                    "cores",
                    "dim",
                    "batch",
                    "tuples",
                    "codec_encode_gbps",
                    "codec_decode_gbps",
                    "codec_roundtrip_tuples_per_s",
                    "csv_roundtrip_tuples_per_s",
                    "frame_bytes_per_tuple",
                    "local_tuples_per_s",
                    "dist_tuples_per_s",
                    "per_message_overhead_us",
                ]),
                Zero(&["restarts", "codec_steady_allocs"]),
                Ratio(
                    "codec_vs_csv",
                    "codec_roundtrip_tuples_per_s",
                    "csv_roundtrip_tuples_per_s",
                ),
                Floor("codec_vs_csv", 5.0, None),
                Ratio("dist_ratio", "dist_tuples_per_s", "local_tuples_per_s"),
                Floor("dist_ratio", 0.5, Some(Below("cores", 4.0))),
            ],
        },
    ),
    (
        // `BENCH_elastic.json`: a scale-out and a scale-in mid-stream lose
        // no tuple, restart nothing, and agree with a fixed fleet.
        "elastic-v1",
        Shape {
            fields: &[
                ("benchmark", Str),
                ("machine_note", Str),
                ("cores", Count),
                ("dim", Count),
                ("tuples", Count),
                ("target", Str),
                ("restarts", Count),
                ("pe_restarts", Count),
                ("scale_outs", Count),
                ("scale_ins", Count),
                ("tuple_loss", Count),
                ("scale_out_latency_ms", Num),
                ("scale_in_latency_ms", Num),
                ("consistency", Num),
                ("max_engines", Count),
                ("final_engines", Count),
            ],
            gates: &[
                Positive(&[
                    "cores",
                    "dim",
                    "tuples",
                    "scale_outs",
                    "scale_ins",
                    "scale_out_latency_ms",
                    "scale_in_latency_ms",
                    "final_engines",
                ]),
                Zero(&["restarts", "pe_restarts", "tuple_loss"]),
                // A subspace distance, within the tolerance that
                // `crates/engine/tests/elastic.rs` also holds the run to.
                Floor("consistency", 0.0, None),
                Ceiling("consistency", 0.25, None),
                Ascending(&["final_engines", "max_engines"]),
                Ceiling("scale_out_latency_ms", 1000.0, Some(Below("cores", 4.0))),
                Ceiling("scale_in_latency_ms", 1000.0, Some(Below("cores", 4.0))),
            ],
        },
    ),
];

/// Checks an artifact against its entry in the `SCHEMAS` table: its `"schema"`
/// field must name an entry, every field of the entry must be present
/// with its kind, and every gate must pass. Returns the schema name; an
/// error names the field that failed.
pub fn check(artifact: &Json) -> Result<&'static str, String> {
    let name = artifact
        .get("schema")
        .ok_or("missing field 'schema'")?
        .as_str()
        .ok_or("field 'schema' is not a string")?;
    let (name, shape) = SCHEMAS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown schema '{name}'"))?;
    check_shape(artifact, artifact, shape)?;
    Ok(name)
}

fn check_shape(root: &Json, obj: &Json, shape: &Shape) -> Result<(), String> {
    for (key, kind) in shape.fields {
        let v = obj
            .get(key)
            .ok_or_else(|| format!("missing field '{key}'"))?;
        let (ok, what) = match kind {
            Str => (v.as_str().is_some(), "a string"),
            Num => (v.as_f64().is_some_and(f64::is_finite), "a finite number"),
            Count => (
                v.as_f64().is_some_and(|n| n >= 0.0 && n.fract() == 0.0),
                "a count",
            ),
            Bool => (v.as_bool().is_some(), "a bool"),
            Rows(row) => {
                let rows = v
                    .as_arr()
                    .filter(|rows| !rows.is_empty())
                    .ok_or_else(|| format!("field '{key}' is not a non-empty array"))?;
                for (i, r) in rows.iter().enumerate() {
                    check_shape(root, r, row).map_err(|e| format!("{key}[{i}]: {e}"))?;
                }
                (true, "")
            }
        };
        if !ok {
            return Err(format!("field '{key}' is not {what}"));
        }
    }
    shape.gates.iter().try_for_each(|g| g.check(root, obj))
}

impl Gate {
    fn check(&self, root: &Json, obj: &Json) -> Result<(), String> {
        let num = |field: FieldRef| -> Result<f64, String> {
            resolve(root, obj, field)?
                .as_f64()
                .ok_or_else(|| format!("field '{field}' is not a number"))
        };
        let waived = |waiver: &Option<Waiver>| -> Result<bool, String> {
            Ok(match waiver {
                None => false,
                Some(Below(field, x)) => num(field)? < *x,
                Some(Is(field, s)) => resolve(root, obj, field)?.as_str() == Some(*s),
            })
        };
        let unless = |waiver: &Option<Waiver>| {
            waiver
                .as_ref()
                .map_or(String::new(), |w| format!(", unless {w}"))
        };
        match self {
            Positive(fields) => {
                for field in *fields {
                    let v = num(field)?;
                    if v <= 0.0 {
                        return Err(format!("'{field}' is {v}; it must be positive"));
                    }
                }
            }
            Zero(fields) => {
                for field in *fields {
                    let v = num(field)?;
                    if v != 0.0 {
                        return Err(format!(
                            "'{field}' is {v}; a benchmark recording must have it 0"
                        ));
                    }
                }
            }
            Ratio(field, numerator, denominator) => {
                let v = num(field)?;
                let expect = num(numerator)? / num(denominator)?;
                if !expect.is_finite() || (v - expect).abs() > RATIO_TOLERANCE * expect.abs() {
                    return Err(format!(
                        "'{field}' is {v}, inconsistent with {numerator} / {denominator} = \
                         {expect:.3}"
                    ));
                }
            }
            Floor(field, floor, waiver) => {
                if !waived(waiver)? {
                    let v = num(field)?;
                    if v < *floor {
                        return Err(format!(
                            "'{field}' is {v}, below its floor {floor}{}",
                            unless(waiver)
                        ));
                    }
                }
            }
            Ceiling(field, ceiling, waiver) => {
                if !waived(waiver)? {
                    let v = num(field)?;
                    if v > *ceiling {
                        return Err(format!(
                            "'{field}' is {v}, above its ceiling {ceiling}{}",
                            unless(waiver)
                        ));
                    }
                }
            }
            Ascending(fields) => {
                for pair in fields.windows(2) {
                    let (a, b) = (num(pair[0])?, num(pair[1])?);
                    if a > b {
                        return Err(format!(
                            "'{}' is {a}, above '{}' = {b}; {} must ascend",
                            pair[0],
                            pair[1],
                            fields.join(" <= ")
                        ));
                    }
                }
            }
            Equal(a, b) => {
                let (x, y) = (num(a)?, num(b)?);
                if x != y {
                    return Err(format!("'{a}' is {x} but '{b}' is {y}; they must be equal"));
                }
            }
            Row(selector) => {
                find_row(root, selector)?;
            }
        }
        Ok(())
    }
}

/// Looks up `field` in `obj`, or a `rows[...].field` reference in the
/// matching row of `root`.
fn resolve<'a>(root: &'a Json, obj: &'a Json, field: FieldRef) -> Result<&'a Json, String> {
    let (within, key) = match field.find("].") {
        Some(end) => (find_row(root, &field[..=end])?, &field[end + 2..]),
        None => (obj, field),
    };
    within
        .get(key)
        .ok_or_else(|| format!("missing field '{field}'"))
}

/// The row of `root` that a `rows[key=value,...]` selector picks out.
fn find_row<'a>(root: &'a Json, selector: &str) -> Result<&'a Json, String> {
    let malformed = || panic!("malformed row selector '{selector}' in the schema table");
    let (rows, keys) = selector
        .strip_suffix(']')
        .and_then(|s| s.split_once('['))
        .unwrap_or_else(malformed);
    let matches = |row: &Json| {
        keys.split(',').all(|pair| {
            let (key, want) = pair.split_once('=').unwrap_or_else(malformed);
            match row.get(key) {
                Some(Json::Str(s)) => s == want,
                Some(Json::Num(n)) => want.parse() == Ok(*n),
                _ => false,
            }
        })
    };
    root.get(rows)
        .and_then(Json::as_arr)
        .and_then(|rows| rows.iter().find(|r| matches(r)))
        .ok_or_else(|| format!("missing required row {selector}"))
}

/// Runs `artifact` through [`check`], then writes it to `path`: a
/// recording that would fail CI aborts here instead of landing.
pub fn write_artifact(path: &str, artifact: &Json) {
    if let Err(e) = check(artifact) {
        panic!("{path}: the recording fails its own gates: {e}");
    }
    std::fs::write(path, format!("{artifact}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The recorded artifacts in `dir`: every `BENCH_*.json`, sorted.
pub fn artifacts_in(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            paths.push(path);
        }
    }
    paths.sort();
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = r#"{"schema": "engine-v1", "benchmark": "engine transport",
        "machine_note": "test", "tuples": 3000, "dim": 64, "batch": 64, "target": "1.5x",
        "restarts": 0, "pe_restarts": 0, "results": [{"config": "unfused-2", "fused": false,
        "engines": 2, "batch1_tuples_per_s": 1000, "batched_tuples_per_s": 2000,
        "speedup": 2}]}"#;

    const HOTPATH: &str = r#"{"schema": "hotpath-v1", "benchmark": "update_cost",
        "machine_note": "test", "change": "workspaces", "target": ">= 1.5x at d = 1000",
        "results": [
          {"dim": 250, "before_median_ns": 2000, "after_median_ns": 1000, "speedup": 2.0},
          {"dim": 1000, "before_median_ns": 3000, "after_median_ns": 1000, "speedup": 3.0}],
        "allocation_guard": "alloc_count.rs"}"#;

    const KERNELS: &str = r#"{"schema": "kernels-v1", "benchmark": "kernel dispatch",
        "machine_note": "test", "backend": "avx2_fma", "reps": 25,
        "target": ">=1.5x on dot and gemm at d=1000", "results": [
          {"kernel": "dot", "d": 256, "scalar_ns": 100, "dispatched_ns": 40, "speedup": 2.5},
          {"kernel": "dot", "d": 1000, "scalar_ns": 400, "dispatched_ns": 150,
           "speedup": 2.667},
          {"kernel": "gemm", "d": 1000, "scalar_ns": 9000, "dispatched_ns": 3000,
           "speedup": 3.0}]}"#;

    const BACKFILL: &str = r#"{"schema": "backfill-v1", "benchmark": "partitioned backfill",
        "machine_note": "test", "cores": 8, "partitions": 8, "rows": 6000, "dim": 64,
        "target": ">=2.5x at 4 workers; warm >=10x; +1 partition recomputes 1",
        "restarts": 0, "pe_restarts": 0, "scaling": [
          {"workers": 1, "wall_s": 8.0, "speedup": 1.0},
          {"workers": 2, "wall_s": 4.2, "speedup": 1.905},
          {"workers": 4, "wall_s": 2.5, "speedup": 3.2},
          {"workers": 8, "wall_s": 1.6, "speedup": 5.0}],
        "cold_wall_s": 2.5, "warm_wall_s": 0.05, "warm_speedup": 50.0,
        "warm_cache_hits": 8, "incremental_added": 1, "incremental_recomputed": 1}"#;

    const SERVING: &str = r#"{"schema": "serving-v1",
        "benchmark": "always-on eigensystem serving", "machine_note": "test", "cores": 8,
        "dim": 64, "tuples": 200000, "target": "ingest ratio >= 0.9 under full query load",
        "restarts": 0, "pe_restarts": 0, "clients": 4, "requests": 120000, "qps": 24000,
        "p50_us": 80, "p99_us": 400, "p999_us": 1500, "baseline_tuples_per_s": 100000,
        "serving_tuples_per_s": 95000, "ingest_ratio": 0.95}"#;

    const NET: &str = r#"{"schema": "net-v1", "benchmark": "wire transport",
        "machine_note": "test", "cores": 8, "dim": 1000, "batch": 64, "tuples": 6400,
        "target": "codec >= 5x CSV, dist >= 0.5x local", "restarts": 0,
        "codec_encode_gbps": 4.0, "codec_decode_gbps": 6.0,
        "codec_roundtrip_tuples_per_s": 400000, "csv_roundtrip_tuples_per_s": 40000,
        "codec_vs_csv": 10.0, "codec_steady_allocs": 0, "frame_bytes_per_tuple": 8030,
        "local_tuples_per_s": 60000, "dist_tuples_per_s": 45000, "dist_ratio": 0.75,
        "per_message_overhead_us": 40.0}"#;

    const ELASTIC: &str = r#"{"schema": "elastic-v1", "benchmark": "elastic rescale",
        "machine_note": "test", "cores": 8, "dim": 32, "tuples": 200000,
        "target": "zero loss, consistency <= 0.25", "restarts": 0, "pe_restarts": 0,
        "scale_outs": 1, "scale_ins": 1, "tuple_loss": 0, "scale_out_latency_ms": 12.5,
        "scale_in_latency_ms": 40.0, "consistency": 0.03, "max_engines": 3,
        "final_engines": 1}"#;

    /// `sample` with each `(from, to)` edit applied; each `from` must occur
    /// exactly once, so an edit cannot silently miss.
    fn edit(sample: &str, edits: &[(&str, &str)]) -> String {
        let mut text = sample.to_string();
        for (from, to) in edits {
            assert_eq!(text.matches(from).count(), 1, "{from:?} must occur once");
            text = text.replacen(from, to, 1);
        }
        text
    }

    fn passes(text: &str) -> bool {
        check(&Json::parse(text).unwrap()).is_ok()
    }

    fn rejection(text: &str) -> String {
        check(&Json::parse(text).unwrap()).unwrap_err()
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn samples_pass_and_round_trip_through_text() {
        for sample in [ENGINE, HOTPATH, KERNELS, BACKFILL, SERVING, NET, ELASTIC] {
            let v = Json::parse(sample).unwrap();
            check(&v).unwrap_or_else(|e| panic!("{e}: {sample}"));
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
        // Every schema in the table has a sample above.
        assert_eq!(SCHEMAS.len(), 7);
    }

    #[test]
    fn committed_artifacts_pass_their_gates() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let paths = artifacts_in(&root).unwrap();
        assert_eq!(paths.len(), SCHEMAS.len(), "{paths:?}");
        for path in paths {
            let text = std::fs::read_to_string(&path).unwrap();
            if let Err(e) = check(&Json::parse(&text).unwrap()) {
                panic!("{}: {e}", path.display());
            }
        }
    }

    #[test]
    fn artifact_without_schema_is_rejected() {
        let err = rejection(&edit(ENGINE, &[(r#""schema": "engine-v1", "#, "")]));
        assert!(err.contains("missing field 'schema'"), "{err}");
        let err = rejection(&edit(HOTPATH, &[(r#""schema": "hotpath-v1", "#, "")]));
        assert!(err.contains("missing field 'schema'"), "{err}");
        let err = rejection(&edit(ENGINE, &[("engine-v1", "engine-v0")]));
        assert!(err.contains("unknown schema 'engine-v0'"), "{err}");
    }

    #[test]
    fn schema_check_catches_inconsistency() {
        let err = rejection(&edit(ENGINE, &[(r#""speedup": 2}"#, r#""speedup": 9}"#)]));
        assert!(err.contains("'speedup' is 9, inconsistent"), "{err}");
    }

    #[test]
    fn nonzero_restarts_is_rejected() {
        let err = rejection(&edit(ENGINE, &[(r#""restarts": 0"#, r#""restarts": 3"#)]));
        assert!(err.contains("'restarts' is 3"), "{err}");
    }

    #[test]
    fn nonzero_pe_restarts_is_rejected() {
        let err = rejection(&edit(
            ENGINE,
            &[(r#""pe_restarts": 0"#, r#""pe_restarts": 1"#)],
        ));
        assert!(err.contains("'pe_restarts' is 1"), "{err}");
    }

    #[test]
    fn missing_restarts_field_is_rejected() {
        let err = rejection(&edit(ENGINE, &[(r#""restarts": 0, "#, "")]));
        assert!(err.contains("missing field 'restarts'"), "{err}");
        let err = rejection(&edit(ENGINE, &[(r#""pe_restarts": 0, "#, "")]));
        assert!(err.contains("missing field 'pe_restarts'"), "{err}");
    }

    #[test]
    fn schema_check_catches_missing_fields() {
        let err = rejection(r#"{"schema": "engine-v1", "benchmark": "x"}"#);
        assert!(err.contains("missing field 'machine_note'"), "{err}");
    }

    #[test]
    fn hotpath_report_catches_inconsistent_speedup() {
        let err = rejection(&edit(
            HOTPATH,
            &[(r#""speedup": 3.0"#, r#""speedup": 4.0"#)],
        ));
        assert!(
            err.contains("results[1]: 'speedup' is 4, inconsistent"),
            "{err}"
        );
    }

    #[test]
    fn hotpath_report_enforces_d1000_floor() {
        let slow = edit(
            HOTPATH,
            &[(
                r#""after_median_ns": 1000, "speedup": 3.0"#,
                r#""after_median_ns": 2500, "speedup": 1.2"#,
            )],
        );
        let err = rejection(&slow);
        assert!(err.contains("'results[dim=1000].speedup' is 1.2, below its floor 1.5"));
        let err = rejection(&edit(HOTPATH, &[(r#""dim": 1000"#, r#""dim": 999"#)]));
        assert!(
            err.contains("missing required row results[dim=1000]"),
            "{err}"
        );
    }

    #[test]
    fn kernel_report_requires_discriminator() {
        let err = rejection(&edit(KERNELS, &[(r#""schema": "kernels-v1", "#, "")]));
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn kernel_report_requires_d1000_rows() {
        let err = rejection(&edit(
            KERNELS,
            &[(r#""kernel": "gemm""#, r#""kernel": "axpy""#)],
        ));
        assert!(
            err.contains("missing required row results[kernel=gemm,d=1000]"),
            "{err}"
        );
        // Required even where the speedup floor is waived.
        let scalar = edit(
            KERNELS,
            &[
                (r#""kernel": "gemm""#, r#""kernel": "axpy""#),
                ("avx2_fma", "scalar"),
            ],
        );
        assert!(rejection(&scalar).contains("missing required row"));
    }

    #[test]
    fn fields_must_have_their_kinds() {
        for (from, to, field) in [
            (
                r#""tuples": 3000"#,
                r#""tuples": -1"#,
                "'tuples' is not a count",
            ),
            (
                r#""tuples": 3000"#,
                r#""tuples": 2.5"#,
                "'tuples' is not a count",
            ),
            (r#""dim": 64"#, r#""dim": "64""#, "'dim' is not a count"),
            (
                r#""speedup": 2}"#,
                r#""speedup": 1e999}"#,
                "'speedup' is not a finite",
            ),
            (
                r#""fused": false"#,
                r#""fused": 0"#,
                "'fused' is not a bool",
            ),
            (
                r#""target": "1.5x""#,
                r#""target": 1.5"#,
                "'target' is not a string",
            ),
        ] {
            let err = rejection(&edit(ENGINE, &[(from, to)]));
            assert!(err.contains(field), "{err}");
        }
        let empty = format!("{}[]}}", &ENGINE[..ENGINE.find('[').unwrap()]);
        assert!(rejection(&empty).contains("'results' is not a non-empty array"));
    }

    #[test]
    fn kernel_report_enforces_speedup_floor_on_simd_backend() {
        // 1.03x at dot@1000.
        let slow = edit(
            KERNELS,
            &[
                (r#""dispatched_ns": 150"#, r#""dispatched_ns": 390"#),
                (r#""speedup": 2.667"#, r#""speedup": 1.026"#),
            ],
        );
        let err = rejection(&slow);
        assert!(err.contains("below its floor 1.5"), "{err}");
        assert!(err.contains("results[kernel=dot,d=1000].speedup"), "{err}");
        // The same numbers are fine when the host had no SIMD backend.
        assert!(passes(&edit(&slow, &[("avx2_fma", "scalar")])));
    }

    #[test]
    fn kernel_report_catches_inconsistent_speedup() {
        let err = rejection(&edit(KERNELS, &[(r#""speedup": 2.5"#, r#""speedup": 9"#)]));
        assert!(err.contains("inconsistent"), "{err}");
    }

    #[test]
    fn backfill_report_rejects_partial_cache_hits() {
        let err = rejection(&edit(
            BACKFILL,
            &[(r#""warm_cache_hits": 8"#, r#""warm_cache_hits": 7"#)],
        ));
        assert!(
            err.contains("'warm_cache_hits' is 7 but 'partitions' is 8"),
            "{err}"
        );
    }

    #[test]
    fn backfill_report_requires_warm_cache_hits_field() {
        let err = rejection(&edit(BACKFILL, &[(r#""warm_cache_hits": 8, "#, "")]));
        assert!(err.contains("missing field 'warm_cache_hits'"), "{err}");
    }

    #[test]
    fn backfill_report_rejects_nonzero_restarts() {
        let err = rejection(&edit(BACKFILL, &[(r#""restarts": 0"#, r#""restarts": 1"#)]));
        assert!(err.contains("'restarts' is 1"), "{err}");
        let err = rejection(&edit(
            BACKFILL,
            &[(r#""pe_restarts": 0"#, r#""pe_restarts": 2"#)],
        ));
        assert!(err.contains("'pe_restarts' is 2"), "{err}");
    }

    #[test]
    fn backfill_report_enforces_warm_floor() {
        let err = rejection(&edit(
            BACKFILL,
            &[
                (r#""warm_wall_s": 0.05"#, r#""warm_wall_s": 1.0"#),
                (r#""warm_speedup": 50.0"#, r#""warm_speedup": 2.5"#),
            ],
        ));
        assert!(
            err.contains("'warm_speedup' is 2.5, below its floor 10"),
            "{err}"
        );
    }

    #[test]
    fn backfill_report_enforces_incrementality() {
        // Recomputed history too.
        let err = rejection(&edit(
            BACKFILL,
            &[(
                r#""incremental_recomputed": 1"#,
                r#""incremental_recomputed": 9"#,
            )],
        ));
        assert!(err.contains("'incremental_recomputed' is 9"), "{err}");
    }

    #[test]
    fn backfill_report_scaling_floor_waived_below_four_cores() {
        // No physical parallelism: four workers take as long as one.
        let flat = edit(
            BACKFILL,
            &[(
                r#""wall_s": 2.5, "speedup": 3.2"#,
                r#""wall_s": 8.0, "speedup": 1.0"#,
            )],
        );
        // On a 4+-core host that is a failed recording...
        let err = rejection(&flat);
        assert!(err.contains("'scaling[workers=4].speedup' is 1, below its floor 2.5"));
        assert!(err.contains("unless cores < 4"), "{err}");
        // ...on a 1-core container the floor is unmeasurable and waived.
        assert!(passes(&edit(&flat, &[(r#""cores": 8"#, r#""cores": 1"#)])));
    }

    #[test]
    fn backfill_report_catches_inconsistent_scaling_speedup() {
        let err = rejection(&edit(BACKFILL, &[(r#""speedup": 3.2"#, r#""speedup": 9"#)]));
        assert!(
            err.contains("scaling[2]: 'speedup' is 9, inconsistent"),
            "{err}"
        );
    }

    #[test]
    fn serving_report_rejects_nonzero_restarts() {
        let err = rejection(&edit(SERVING, &[(r#""restarts": 0"#, r#""restarts": 1"#)]));
        assert!(err.contains("'restarts' is 1"), "{err}");
        let err = rejection(&edit(
            SERVING,
            &[(r#""pe_restarts": 0"#, r#""pe_restarts": 1"#)],
        ));
        assert!(err.contains("'pe_restarts' is 1"), "{err}");
    }

    #[test]
    fn serving_report_requires_monotone_quantiles() {
        let err = rejection(&edit(SERVING, &[(r#""p99_us": 400"#, r#""p99_us": 3000"#)]));
        assert!(err.contains("'p99_us' is 3000, above 'p999_us'"), "{err}");
    }

    #[test]
    fn serving_report_enforces_ingest_floor_with_core_waiver() {
        let degraded = edit(
            SERVING,
            &[
                (
                    r#""serving_tuples_per_s": 95000"#,
                    r#""serving_tuples_per_s": 60000"#,
                ),
                (r#""ingest_ratio": 0.95"#, r#""ingest_ratio": 0.6"#),
            ],
        );
        // On a 4+-core host the degradation gate fails the artifact...
        let err = rejection(&degraded);
        assert!(
            err.contains("'ingest_ratio' is 0.6, below its floor 0.9"),
            "{err}"
        );
        // ...on a small container the floor is unmeasurable and waived.
        assert!(passes(&edit(
            &degraded,
            &[(r#""cores": 8"#, r#""cores": 2"#)]
        )));
    }

    #[test]
    fn serving_report_catches_inconsistent_ratio() {
        let err = rejection(&edit(
            SERVING,
            &[(r#""ingest_ratio": 0.95"#, r#""ingest_ratio": 0.99"#)],
        ));
        assert!(
            err.contains("'ingest_ratio' is 0.99, inconsistent"),
            "{err}"
        );
    }

    #[test]
    fn net_report_rejects_nonzero_restarts_and_allocs() {
        let err = rejection(&edit(NET, &[(r#""restarts": 0"#, r#""restarts": 1"#)]));
        assert!(err.contains("'restarts' is 1"), "{err}");
        let err = rejection(&edit(
            NET,
            &[(r#""codec_steady_allocs": 0"#, r#""codec_steady_allocs": 3"#)],
        ));
        assert!(err.contains("'codec_steady_allocs' is 3"), "{err}");
    }

    #[test]
    fn net_report_enforces_codec_floor_unconditionally() {
        // Even on a tiny host: the codec bench is single-threaded and
        // CPU-bound, so the floor is measurable everywhere.
        let err = rejection(&edit(
            NET,
            &[
                (
                    r#""codec_roundtrip_tuples_per_s": 400000"#,
                    r#""codec_roundtrip_tuples_per_s": 120000"#,
                ),
                (r#""codec_vs_csv": 10.0"#, r#""codec_vs_csv": 3.0"#),
                (r#""cores": 8"#, r#""cores": 1"#),
            ],
        ));
        assert!(
            err.contains("'codec_vs_csv' is 3, below its floor 5"),
            "{err}"
        );
    }

    #[test]
    fn net_report_enforces_dist_floor_with_core_waiver() {
        let slow = edit(
            NET,
            &[
                (
                    r#""dist_tuples_per_s": 45000"#,
                    r#""dist_tuples_per_s": 24000"#,
                ),
                (r#""dist_ratio": 0.75"#, r#""dist_ratio": 0.4"#),
            ],
        );
        let err = rejection(&slow);
        assert!(
            err.contains("'dist_ratio' is 0.4, below its floor 0.5"),
            "{err}"
        );
        // Two processes time-slicing one core measure the scheduler, not
        // the transport: waived below 4 cores.
        assert!(passes(&edit(&slow, &[(r#""cores": 8"#, r#""cores": 1"#)])));
    }

    #[test]
    fn net_report_catches_inconsistent_ratios() {
        let err = rejection(&edit(
            NET,
            &[(r#""codec_vs_csv": 10.0"#, r#""codec_vs_csv": 7.0"#)],
        ));
        assert!(err.contains("'codec_vs_csv' is 7, inconsistent"), "{err}");
        let err = rejection(&edit(
            NET,
            &[(r#""dist_ratio": 0.75"#, r#""dist_ratio": 0.9"#)],
        ));
        assert!(err.contains("'dist_ratio' is 0.9, inconsistent"), "{err}");
    }

    #[test]
    fn elastic_report_rejects_faulted_or_lossy_recordings() {
        let err = rejection(&edit(ELASTIC, &[(r#""restarts": 0"#, r#""restarts": 1"#)]));
        assert!(err.contains("'restarts' is 1"), "{err}");
        let err = rejection(&edit(
            ELASTIC,
            &[(r#""pe_restarts": 0"#, r#""pe_restarts": 2"#)],
        ));
        assert!(err.contains("'pe_restarts' is 2"), "{err}");
        let err = rejection(&edit(
            ELASTIC,
            &[(r#""tuple_loss": 0"#, r#""tuple_loss": 3"#)],
        ));
        assert!(err.contains("'tuple_loss' is 3"), "{err}");
    }

    #[test]
    fn elastic_report_requires_a_rescale_in_each_direction() {
        let err = rejection(&edit(
            ELASTIC,
            &[(r#""scale_ins": 1"#, r#""scale_ins": 0"#)],
        ));
        assert!(
            err.contains("'scale_ins' is 0; it must be positive"),
            "{err}"
        );
        let err = rejection(&edit(
            ELASTIC,
            &[(r#""scale_outs": 1"#, r#""scale_outs": 0"#)],
        ));
        assert!(
            err.contains("'scale_outs' is 0; it must be positive"),
            "{err}"
        );
    }

    #[test]
    fn elastic_report_enforces_consistency_unconditionally() {
        let diverged = edit(
            ELASTIC,
            &[(r#""consistency": 0.03"#, r#""consistency": 0.5"#)],
        );
        let err = rejection(&diverged);
        assert!(
            err.contains("'consistency' is 0.5, above its ceiling 0.25"),
            "{err}"
        );
        // No core waiver for correctness: a 1-core host must still agree
        // with the fixed-fleet reference.
        assert!(!passes(&edit(
            &diverged,
            &[(r#""cores": 8"#, r#""cores": 1"#)]
        )));
    }

    #[test]
    fn elastic_report_latency_ceiling_waived_below_four_cores() {
        let slow = edit(
            ELASTIC,
            &[(
                r#""scale_in_latency_ms": 40.0"#,
                r#""scale_in_latency_ms": 5000"#,
            )],
        );
        let err = rejection(&slow);
        assert!(err.contains("'scale_in_latency_ms' is 5000, above its ceiling 1000"));
        // On a time-sliced host the latency measures the scheduler.
        assert!(passes(&edit(&slow, &[(r#""cores": 8"#, r#""cores": 1"#)])));
    }

    #[test]
    fn elastic_report_bounds_the_final_fleet() {
        // Above max_engines = 3.
        let err = rejection(&edit(
            ELASTIC,
            &[(r#""final_engines": 1"#, r#""final_engines": 4"#)],
        ));
        assert!(
            err.contains("'final_engines' is 4, above 'max_engines' = 3"),
            "{err}"
        );
    }
}
