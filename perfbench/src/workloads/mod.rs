//! The four workloads. Each has an untraced run (the `spca` binary driven
//! from outside; end-to-end metrics) and a traced run (the library calls
//! behind the CLI, same inputs; per-layer metrics).

mod backfill;
mod live_serve;
mod survey;
mod wire;

use crate::report::Report;
use crate::stats::{median, Summary};
use crate::Ctx;
use astro_stream_pca::core::metrics::subspace_distance;
use astro_stream_pca::core::{merge, EigenSystem};
use astro_stream_pca::engine::persist;
use astro_stream_pca::linalg::Mat;
use std::path::Path;

pub fn untraced(workload: &str, ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    match workload {
        "survey" => survey::untraced(ctx, r),
        "wire" => wire::untraced(ctx, r),
        "live-serve" => live_serve::untraced(ctx, r),
        "backfill" => backfill::untraced(ctx, r),
        other => Err(format!("unknown workload {other}")),
    }
}

pub fn traced(workload: &str, ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    match workload {
        "survey" => survey::traced(ctx, r),
        "wire" => wire::traced(ctx, r),
        "live-serve" => live_serve::traced(ctx, r),
        "backfill" => backfill::traced(ctx, r),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Prints a metric's summary (`what` it measures on this workload) and
/// its samples, and records the median.
fn record(r: &mut Report, name: &str, unit: &str, what: &str, samples: &[f64]) {
    println!("{name} ({what}): {}", Summary::of(samples).describe(unit));
    crate::proc::print_samples(name, samples);
    r.set(name, median(samples));
}

/// Repeats in-process runs for `seconds`, alternating untraced and traced
/// ones after a discarded warm-up run, so neither side gains from going
/// first. Returns the traced run whose rate is the median of the traced
/// runs, and the spans' overhead: median traced rate / median untraced
/// rate.
fn alternate<T>(
    seconds: std::time::Duration,
    mut run: impl FnMut() -> Result<T, String>,
    rate: impl Fn(&T) -> f64,
) -> Result<(T, f64), String> {
    let deadline = std::time::Instant::now() + seconds;
    crate::trace::set_enabled(false);
    run()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || std::time::Instant::now() < deadline {
        crate::trace::set_enabled(false);
        plain.push(rate(&run()?));
        crate::trace::set_enabled(true);
        traced.push(run()?);
    }
    let rates: Vec<f64> = traced.iter().map(&rate).collect();
    let mid = median(&rates);
    println!(
        "trace overhead: {} untraced and {} traced runs, median rates {:.6} and {mid:.6}",
        plain.len(),
        traced.len(),
        median(&plain)
    );
    let pick = (0..traced.len())
        .min_by(|&a, &b| (rates[a] - mid).abs().total_cmp(&(rates[b] - mid).abs()))
        .expect("at least one traced run");
    Ok((traced.swap_remove(pick), mid / median(&plain)))
}

/// Deletes the run's generated inputs and program outputs, keeping the
/// span file.
pub fn remove_inputs(work: &Path) {
    for e in std::fs::read_dir(work).into_iter().flatten().flatten() {
        if e.file_name() == "spans.json" {
            continue;
        }
        let p = e.path();
        let _ = if p.is_dir() {
            std::fs::remove_dir_all(&p)
        } else {
            std::fs::remove_file(&p)
        };
    }
}

/// Sine of the largest principal angle between the first `k` components
/// of `eig` and of `reference`.
fn distance(eig: &EigenSystem, reference: &Mat, k: usize) -> f64 {
    let take = |m: &Mat| Mat::from_columns(&(0..k).map(|j| m.col(j).to_vec()).collect::<Vec<_>>());
    subspace_distance(&take(&eig.basis), &take(reference)).unwrap_or(f64::INFINITY)
}

/// Reads `engine<k>_latest.snapshot` for engines `0..n` under `dir` and
/// merges them the way the results hub does.
fn merged_snapshots(dir: &Path, n: usize) -> Result<(EigenSystem, Vec<EigenSystem>), String> {
    let each: Vec<EigenSystem> = (0..n)
        .map(|k| {
            let path = persist::SnapshotWriter::latest_path(dir, k as u32);
            persist::read_snapshot(&path).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let mut acc = each[0].clone();
    for s in &each[1..] {
        acc = merge(&acc, s).map_err(|e| e.to_string())?;
    }
    Ok((acc, each))
}
