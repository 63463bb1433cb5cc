//! Per-layer measurements: spans around the benchmark's own calls into
//! each layer's public functions on the workload's rows, and the counters
//! the program already returns (`RunReport`, `ResultsHub::sync_totals`).

use crate::data::Rows;
use crate::report::{Report, OPS};
use crate::trace::span;
use astro_stream_pca::core::{merge, EigenSystem, PcaConfig, QueryWorkspace, RobustPca};
use astro_stream_pca::engine::persist::{decode_snapshot, encode_snapshot};
use astro_stream_pca::engine::{partition_csv_rows, EpochStore, PartitionWorker};
use astro_stream_pca::spectra::io;
use astro_stream_pca::streams::{
    decode_frame, encode_frame, ColumnarFrame, DataTuple, RunReport, Tuple,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Each timed micro-call is repeated for at least this long, so one span
/// covers many calls and the per-call figure is not timer resolution.
const MIN_SPAN: Duration = Duration::from_millis(40);
/// Rows replayed through the estimator and the codec, at most.
const MAX_REPLAY_ROWS: usize = 8_000;

/// Repeats `f` until [`MIN_SPAN`] has passed inside span `name`; returns
/// the mean time per call in seconds.
fn per_call(name: &'static str, mut f: impl FnMut()) -> f64 {
    let mut calls = 0u32;
    let ((), d) = span(name, || {
        let t = Instant::now();
        while calls == 0 || t.elapsed() < MIN_SPAN {
            f();
            calls += 1;
        }
    });
    d.as_secs_f64() / f64::from(calls)
}

/// Streams `rows` through one estimator, as a single engine would, and
/// returns its full (`p + q`-component) eigensystem.
pub fn fit(cfg: &PcaConfig, rows: &[(Vec<f64>, Vec<bool>)]) -> Result<EigenSystem, String> {
    let mut pca = RobustPca::new(cfg.clone());
    for (v, m) in rows {
        let out = if m.iter().all(|&ok| ok) {
            pca.update(v)
        } else {
            pca.update_masked(v, m)
        };
        black_box(out.map_err(|e| e.to_string())?);
    }
    pca.full_eigensystem()
        .cloned()
        .ok_or_else(|| "too few rows to initialise the estimator".to_string())
}

/// Runs the layer probes on `rows` (the CSV at `csv`) with the workload's
/// estimator `cfg`. `merge_inputs` are the run's final eigensystems to
/// merge; when fewer than two, the two halves of the replay are merged.
pub fn probe(
    r: &mut Report,
    rows: &Rows,
    csv: &Path,
    cfg: &PcaConfig,
    merge_inputs: Vec<EigenSystem>,
) -> Result<(), String> {
    // spectra.io: parse every line of the workload's CSV text.
    let text = std::fs::read_to_string(csv).map_err(|e| format!("read {}: {e}", csv.display()))?;
    let lines: Vec<&str> = text.lines().take(MAX_REPLAY_ROWS * 4).collect();
    let (parsed, d) = span("spectra.io.parse_csv_line", || {
        lines
            .iter()
            .filter_map(|l| black_box(io::parse_csv_line(l)))
            .count()
    });
    r.set(
        "spectra.io.parse_us_per_row",
        d.as_secs_f64() * 1e6 / parsed.max(1) as f64,
    );

    // core.robust: single-thread replay, in two halves fitted separately
    // (their merge stands in for a multi-engine merge where the run has
    // only one engine).
    let replay = &rows.rows[..rows.len().min(MAX_REPLAY_ROWS)];
    let (halves, d) = span("core.robust.update", || {
        replay
            .chunks(replay.len().div_ceil(2))
            .map(|chunk| fit(cfg, chunk))
            .collect::<Result<Vec<EigenSystem>, String>>()
    });
    let halves = halves?;
    r.set(
        "core.robust.update_us_per_tuple",
        d.as_secs_f64() * 1e6 / replay.len() as f64,
    );

    // core.merge.
    let inputs = if merge_inputs.len() >= 2 {
        merge_inputs
    } else {
        halves
    };
    let mut merged = None;
    let per_fold = per_call("core.merge", || {
        let mut acc = inputs[0].clone();
        for s in &inputs[1..] {
            acc = merge(&acc, s).expect("compatible eigensystems");
        }
        merged = Some(acc);
    }) / (inputs.len() - 1) as f64;
    r.set("core.merge.ms_per_merge", per_fold * 1e3);
    let eig = merged.expect("merged at least once");

    // core.query on the merged eigensystem, over the workload's rows.
    let p = cfg.p;
    let mut ws = QueryWorkspace::new();
    let mut i = 0usize;
    let project = per_call("core.query.project", || {
        i = (i + 1) % replay.len();
        black_box(ws.project(&eig, p, &replay[i].0).map(|c| c[0]).ok());
    });
    let score = per_call("core.query.score", || {
        i = (i + 1) % replay.len();
        black_box(ws.outlier_score(&eig, p, &replay[i].0).ok());
    });
    r.set("core.query.project_us", project * 1e6);
    r.set("core.query.score_us", score * 1e6);

    // streams.codec on 64-tuple frames of the rows.
    let frames: Vec<Vec<Tuple>> = replay
        .chunks(64)
        .enumerate()
        .map(|(f, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, (v, m))| {
                    let seq = (f * 64 + k) as u64;
                    Tuple::Data(if m.iter().all(|&ok| ok) {
                        DataTuple::new(seq, v.clone())
                    } else {
                        DataTuple::masked(seq, v.clone(), m.clone())
                    })
                })
                .collect()
        })
        .collect();
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); frames.len()];
    let ((), enc) = span("streams.codec.encode_frame", || {
        for (f, buf) in frames.iter().zip(bufs.iter_mut()) {
            encode_frame(f, buf).expect("data frames encode");
        }
    });
    let mut cols = ColumnarFrame::default();
    let ((), dec) = span("streams.codec.decode_frame", || {
        for buf in &bufs {
            black_box(decode_frame(buf, &mut cols).expect("own frames decode"));
        }
    });
    let n_frames = frames.len().max(1) as f64;
    r.set(
        "streams.codec.encode_us_per_frame",
        enc.as_secs_f64() * 1e6 / n_frames,
    );
    r.set(
        "streams.codec.decode_us_per_frame",
        dec.as_secs_f64() * 1e6 / n_frames,
    );

    // engine.persist: the snapshot text codec.
    let bytes = encode_snapshot(&eig);
    let enc = per_call("engine.persist.encode_snapshot", || {
        black_box(encode_snapshot(&eig));
    });
    let dec = per_call("engine.persist.decode_snapshot", || {
        black_box(decode_snapshot(&bytes).expect("own snapshot decodes"));
    });
    r.set("engine.persist.encode_ms", enc * 1e3);
    r.set("engine.persist.decode_ms", dec * 1e3);
    r.set("engine.persist.snapshot_bytes", bytes.len() as f64);

    // engine.epoch: pin cost on a store holding this eigensystem; the
    // live-serve workload overwrites it with pins on its live store.
    let store = std::sync::Arc::new(EpochStore::new());
    let mut buf = store.checkout();
    buf.eig.copy_from(&eig);
    buf.p = p;
    store.publish(buf);
    let mut reader = store.reader().expect("a free reader slot");
    let pin = per_call("engine.epoch.pin", || {
        black_box(reader.pin().map(|s| s.epoch));
    });
    r.set("engine.epoch.pin_ns", pin * 1e9);

    // engine.backfill: partition the CSV and fit each partition.
    let (parts, d) = span("engine.backfill.partition_csv_rows", || {
        partition_csv_rows(csv, 8)
    });
    let parts = parts.map_err(|e| format!("partition: {e}"))?;
    r.set("engine.backfill.partition_s", d.as_secs_f64());
    let mut worker = PartitionWorker::new(cfg.clone());
    let mut fit = Duration::ZERO;
    for part in &parts {
        let text = part.payload.as_str().map_err(|e| e.to_string())?;
        let (res, d) = span("engine.backfill.process", || worker.process(text));
        res.map_err(|e| format!("fit partition: {e}"))?;
        fit += d;
    }
    r.set(
        "engine.backfill.fit_s_per_partition",
        fit.as_secs_f64() / parts.len() as f64,
    );
    Ok(())
}

/// Per-operator counters of `reports` (an operator counts where it ran:
/// the report with its largest busy time), relative to `window`.
pub fn op_counters(r: &mut Report, reports: &[&RunReport], window: Duration) {
    for op in OPS {
        let snap = reports
            .iter()
            .filter_map(|rep| rep.op(op))
            .max_by_key(|s| s.busy_ns);
        let (busy, tin, cin) = snap.map_or((0, 0, 0), |s| (s.busy_ns, s.tuples_in, s.control_in));
        r.set(
            format!("streams.op.{op}.busy_share"),
            busy as f64 / window.as_nanos().max(1) as f64,
        );
        r.set(format!("streams.op.{op}.tuples_in"), tin as f64);
        r.set(format!("streams.op.{op}.control_in"), cin as f64);
        if op == "sync-controller" {
            r.set("streams.op.sync-controller.busy_s", busy as f64 * 1e-9);
        }
    }
    let (mut tuples, mut bytes) = (0u64, 0u64);
    for rep in reports {
        for l in rep.links.iter().filter(|l| l.from == "split") {
            tuples += l.tuples();
            bytes += l.bytes();
        }
    }
    r.set("streams.link.tuples", tuples as f64);
    r.set(
        "streams.link.bytes_per_tuple",
        if tuples == 0 {
            0.0
        } else {
            bytes as f64 / tuples as f64
        },
    );
    let skips: u64 = reports.iter().map(|rep| rep.total_sync_skips()).sum();
    r.set("engine.sync.skips", skips as f64);
    let ck: u64 = reports.iter().map(|rep| rep.total_checkpoint_skips()).sum();
    r.set("streams.checkpoint.skips", ck as f64);
}

/// Sum over PEs of the highest checkpoint generation found in `pe_dir`
/// (files `pe<i>-g<g>.manifest`); 0 without checkpoints.
pub fn checkpoint_generations(pe_dir: &Path) -> u64 {
    let mut best: std::collections::BTreeMap<String, u64> = Default::default();
    for e in std::fs::read_dir(pe_dir).into_iter().flatten().flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        let Some(stem) = name.strip_suffix(".manifest") else {
            continue;
        };
        if let Some((pe, g)) = stem.split_once("-g") {
            if let Ok(g) = g.parse::<u64>() {
                let b = best.entry(pe.to_string()).or_default();
                *b = (*b).max(g);
            }
        }
    }
    best.values().sum()
}

/// Zeroes for the counters of layers a workload does not run, so every
/// traced run prints every per-layer name.
pub fn absent(r: &mut Report, names: &[&str]) {
    for n in names {
        r.set(*n, 0.0);
    }
}
