//! `survey`: SDSS-like spectra (d = 1000, coverage gaps, 5 % outliers)
//! read from a CSV file by `spca run` with 2 engines, ring sync every
//! 0.5 s, p = 4, N = 2000, batch 64 and crash-recovery checkpoints on.
//! Closed loop: each run of the program reads the whole file.

use super::{distance, merged_snapshots, record};
use crate::data::{self, Rows};
use crate::layers;
use crate::proc::{self, line_after, numbers, Proc};
use crate::report::Report;
use crate::trace::span;
use crate::Ctx;
use astro_stream_pca::engine::{persist, AppConfig, ParallelPcaApp};
use astro_stream_pca::linalg::Mat;
use astro_stream_pca::streams::ops::CsvFileSource;
use astro_stream_pca::streams::Engine;
use std::path::Path;
use std::time::{Duration, Instant};

const ROWS: usize = 3000;
const DIM: usize = 1000;
const ENGINES: usize = 2;
const COMPONENTS: usize = 4;
const MEMORY: usize = 2000;
/// Leading components compared with the serial reference: only the
/// first stands clear of the rest (the next eigenvalues of these spectra
/// are within 10-20 % of each other, so their order is not determined).
const COMPARED: usize = 1;
/// Largest accepted sine of the angle between the parallel run's merged
/// leading component and the serial one. Seeds 1-5 gave 0.05-0.36 (two
/// engines each see half of a short gappy stream); a broken split, sync
/// or merge gives values near 1.
const MAX_DISTANCE: f64 = 0.5;

fn inputs(ctx: &Ctx) -> Result<(Rows, std::path::PathBuf), String> {
    let rows = data::spectra(ctx.seed, ROWS, DIM, 0.05);
    let csv = ctx.work.join("input.csv");
    let props = rows.write_csv(&csv).map_err(|e| e.to_string())?;
    println!("{}", props.line());
    Ok((rows, csv))
}

/// The serial reference: the same rows, in file order, through one
/// estimator (the single-threaded baseline of the same job). The
/// repository has no batch fit for gappy rows, and a batch fit of the
/// spectra before their gaps were cut is a different estimand (see
/// NOTES.md).
fn reference(rows: &Rows) -> Result<Mat, String> {
    let (eig, _) = span("core.robust.serial_reference", || {
        layers::fit(&data::pca_config(DIM, COMPONENTS, MEMORY), &rows.rows)
    });
    Ok(eig?.basis)
}

fn run_args<'a>(csv: &'a str, rec: &'a str, snaps: &'a str) -> Vec<&'a str> {
    vec![
        "run",
        "--input",
        csv,
        "--engines",
        "2",
        "--components",
        "4",
        "--memory",
        "2000",
        "--sync",
        "ring",
        "--batch",
        "64",
        "--snapshot-dir",
        rec,
        "--snapshots",
        snaps,
    ]
}

pub fn untraced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (rows, csv) = inputs(ctx)?;
    let reference = reference(&rows)?;
    let (mut setup, mut rate, mut result, mut response, mut cpu, mut rss, mut skips) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let deadline = Instant::now() + ctx.seconds;
    let mut runs = 0;
    while runs == 0 || Instant::now() < deadline {
        runs += 1;
        let rec = proc::fresh_dir(&ctx.work, "recovery")?;
        let snaps = proc::fresh_dir(&ctx.work, "snapshots")?;
        let (csv_s, rec_s, snaps_s) = (
            csv.to_string_lossy().to_string(),
            rec.to_string_lossy().to_string(),
            snaps.to_string_lossy().to_string(),
        );
        let p = Proc::spawn(&ctx.spca, &run_args(&csv_s, &rec_s, &snaps_s))?;
        let pe = proc::watch(
            &p,
            Duration::from_micros(200),
            Duration::from_secs(120),
            || p.has_pe_thread(),
        );
        let ckpt = proc::watch(
            &p,
            Duration::from_micros(500),
            Duration::from_secs(120),
            || (0..ENGINES as u32).any(|k| persist::recovery_path(&rec, k).exists()),
        );
        let launched = p.launched;
        let exit = p.finish()?;
        r.check("spca run exits 0", exit.ok, "exit status");
        let processed = line_after(&exit.stdout, "processed ").map(numbers);
        let Some(&[consumed, _, tps]) = processed.as_deref() else {
            r.check(
                "spca run reports its throughput",
                false,
                "no 'processed' line",
            );
            continue;
        };
        r.tally.ops(ROWS as u64, consumed as u64);
        r.check(
            "every generated tuple consumed exactly once",
            consumed as usize == ROWS,
            format!("{consumed} of {ROWS}"),
        );
        // "fault summary: R operator restarts, P PE restarts ..., Q
        // quarantined tuples, S skipped syncs, ..." (absent when all 0).
        let faults = line_after(&exit.stdout, "fault summary: ")
            .map(numbers)
            .unwrap_or_else(|| vec![0.0; 9]);
        let fault = |i: usize| faults.get(i).copied().unwrap_or(f64::NAN);
        r.check(
            "zero operator and PE restarts",
            fault(0) == 0.0 && fault(1) == 0.0,
            format!("{} restarts, {} PE restarts", fault(0), fault(1)),
        );
        skips.push(fault(3));
        match merged_snapshots(&snaps, ENGINES) {
            Ok((merged, _)) => {
                let dist = distance(&merged, &reference, COMPARED);
                let all: Vec<String> = (1..=COMPONENTS)
                    .map(|k| format!("{:.3}", distance(&merged, &reference, k)))
                    .collect();
                println!(
                    "distance to serial reference, k = 1..{COMPONENTS}: {}",
                    all.join(" ")
                );
                r.check(
                    "merged eigensystem near the serial reference",
                    dist <= MAX_DISTANCE,
                    format!("sin angle {dist:.4} <= {MAX_DISTANCE}, leading component"),
                );
            }
            Err(e) => r.check("engine snapshots readable", false, e),
        }
        let (Some(pe), Some(ckpt)) = (pe, ckpt) else {
            r.check(
                "run observed from launch to first checkpoint",
                false,
                "too fast to see",
            );
            continue;
        };
        setup.push((pe - launched).as_secs_f64());
        response.push((ckpt - launched).as_secs_f64() * 1e3);
        result.push((exit.at - launched).as_secs_f64() * 1e3);
        rate.push(tps);
        cpu.push(exit.usage.cpu_s());
        rss.push(exit.usage.peak_rss_mb);
    }
    println!(
        "survey: {} runs of spca run over {ROWS} rows; skipped syncs per run {:?}",
        setup.len(),
        skips
    );
    record(r, "setup_s", "s", "launch to first tuple consumed", &setup);
    record(
        r,
        "tuples_per_s",
        "tuples/s",
        "tuples consumed / processing window, as spca run reports it",
        &rate,
    );
    record(
        r,
        "result_p50_ms",
        "ms",
        "launch to merged result, whole run",
        &result,
    );
    record(
        r,
        "response_p50_ms",
        "ms",
        "launch to first recovery snapshot on disk",
        &response,
    );
    record(r, "cpu_s", "CPU-s", "user + sys of one run", &cpu);
    record(r, "peak_rss_mb", "MB", "peak RSS of one run", &rss);
    Ok(())
}

/// One in-process run of the `spca run` graph; returns the report, the
/// results hub's sync totals, the peak thread count and CPU usage.
fn in_process(csv: &Path, work: &Path) -> Result<InProcess, String> {
    let rec = proc::fresh_dir(work, "recovery")?;
    let snaps = proc::fresh_dir(work, "snapshots")?;
    let mut cfg = AppConfig::new(ENGINES, data::pca_config(DIM, COMPONENTS, MEMORY));
    cfg.batch_size = 64;
    cfg.snapshot_dir = Some(snaps.clone());
    cfg.recovery_dir = Some(rec.clone());
    let threads = crate::sys::PeakThreads::start();
    let before = crate::sys::self_usage();
    let ((graph, handles), _) = span("engine.app.build", || {
        ParallelPcaApp::build(&cfg, Box::new(CsvFileSource::new(csv)))
    });
    let (report, _) = span("streams.engine.run", || Engine::run(graph));
    let after = crate::sys::self_usage();
    let threads = threads.stop();
    let (shares, merges) = handles.hub.sync_totals();
    Ok(InProcess {
        report,
        shares,
        merges,
        threads,
        user_s: after.user_s - before.user_s,
        sys_s: after.sys_s - before.sys_s,
        generations: layers::checkpoint_generations(&rec.join("pe")),
        snaps,
    })
}

struct InProcess {
    report: astro_stream_pca::streams::RunReport,
    shares: u64,
    merges: u64,
    threads: usize,
    user_s: f64,
    sys_s: f64,
    generations: u64,
    snaps: std::path::PathBuf,
}

pub fn traced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (rows, csv) = inputs(ctx)?;
    let rate =
        |p: &InProcess| p.report.tuples_in_matching("pca-") as f64 / p.report.elapsed.as_secs_f64();
    let (run, overhead) = super::alternate(ctx.seconds, || in_process(&csv, &ctx.work), rate)?;
    r.set("trace.overhead", overhead);
    let consumed = run.report.tuples_in_matching("pca-");
    r.tally.ops(ROWS as u64, consumed);
    r.check(
        "every generated tuple consumed exactly once",
        consumed as usize == ROWS,
        format!("{consumed} of {ROWS}"),
    );
    r.check(
        "zero operator and PE restarts",
        run.report.total_restarts() + run.report.total_pe_restarts() == 0,
        "run report",
    );
    println!(
        "survey (in-process): {consumed} tuples in {:.3} s = {:.0} tuples/s",
        run.report.elapsed.as_secs_f64(),
        rate(&run)
    );
    layers::op_counters(r, &[&run.report], run.report.elapsed);
    r.set("engine.sync.shares", run.shares as f64);
    r.set("engine.sync.merges", run.merges as f64);
    r.set("streams.checkpoint.generations", run.generations as f64);
    r.set("proc.cpu_user_s", run.user_s);
    r.set("proc.cpu_sys_s", run.sys_s);
    r.set("proc.threads_peak", run.threads as f64);
    let (_, engines) = merged_snapshots(&run.snaps, ENGINES)?;
    let cfg = data::pca_config(DIM, COMPONENTS, MEMORY);
    layers::probe(r, &rows, &csv, &cfg, engines)?;
    layers::absent(r, NOT_RUN);
    Ok(())
}

/// Layers `survey` does not run.
const NOT_RUN: &[&str] = &[
    "engine.epoch.published",
    "engine.epoch.publish_interval_ms",
    "streams.http.server_p50_us",
    "streams.http.server_p99_us",
    "streams.http.accepted",
    "streams.http.served",
    "streams.http.shed",
    "streams.http.rate_limited",
    "loadgen.ingest_late_p99_ms",
    "loadgen.query_late_p99_ms",
    "streams.backfill.cache_hits",
    "streams.backfill.computed",
    "streams.backfill.quarantined",
];
