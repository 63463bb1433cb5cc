//! `backfill`: a d = 256 spectra corpus cut into 8 partitions, fitted by
//! `spca backfill` on 2 pool workers into an empty state store (cold),
//! then by the same command again over the filled store (warm). The only
//! workload that runs the partition pool, the content-hashed state store
//! and the tree merge.

use super::{distance, record};
use crate::data::{self, Rows};
use crate::layers;
use crate::proc::{self, line_after, numbers, Proc};
use crate::report::Report;
use crate::trace::span;
use crate::Ctx;
use astro_stream_pca::engine::{backfill, partition_csv_rows, BackfillConfig};
use astro_stream_pca::linalg::Mat;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const ROWS: usize = 16_000;
const DIM: usize = 256;
const PARTITIONS: usize = 8;
const WORKERS: usize = 2;
const COMPONENTS: usize = 4;
const MEMORY: usize = 5000;
/// Leading components compared with the serial reference (as for
/// `survey`, only the first stands clear of the rest).
const COMPARED: usize = 1;
/// Largest accepted sine of the angle between the merged leading
/// component and the serial one. Seeds 1-5 gave 0.10-0.22 (partitions
/// are fitted independently, the serial stream forgets); a broken fit or
/// merge gives values near 1.
const MAX_DISTANCE: f64 = 0.5;

fn inputs(ctx: &Ctx) -> Result<(Rows, PathBuf), String> {
    let rows = data::spectra(ctx.seed, ROWS, DIM, 0.05);
    let csv = ctx.work.join("input.csv");
    let props = rows.write_csv(&csv).map_err(|e| e.to_string())?;
    println!("{}", props.line());
    Ok((rows, csv))
}

/// One `spca backfill` over `csv` into `state`, writing `out`.
struct Pass {
    launched: Instant,
    pool: Option<Instant>,
    exit: crate::proc::Exit,
    /// partitions, cache hits, computed, quarantined
    counts: [f64; 4],
}

fn pass(ctx: &Ctx, csv: &str, state: &str, out: &str) -> Result<Pass, String> {
    let p = Proc::spawn(
        &ctx.spca,
        &[
            "backfill",
            "--input",
            csv,
            "--partitions",
            "8",
            "--workers",
            "2",
            "--state-dir",
            state,
            "--out",
            out,
        ],
    )?;
    // The CLI is single-threaded until the partition pool starts.
    let pool = proc::watch(
        &p,
        Duration::from_micros(200),
        Duration::from_secs(120),
        || crate::sys::thread_count(p.pid) > 1,
    );
    let launched = p.launched;
    let exit = p.finish()?;
    let n = line_after(&exit.stdout, "backfill: ")
        .map(numbers)
        .unwrap_or_default();
    let counts = if n.len() >= 4 {
        [n[0], n[1], n[2], n[3]]
    } else {
        [f64::NAN; 4]
    };
    Ok(Pass {
        launched,
        pool,
        exit,
        counts,
    })
}

/// Checks one pass's partition accounting; quarantined partitions count
/// as failed operations.
fn check_counts(r: &mut Report, what: &str, counts: [f64; 4], hits: usize, computed: usize) {
    let [parts, h, c, q] = counts;
    r.tally.ops(PARTITIONS as u64, (parts - q).max(0.0) as u64);
    r.check(
        &format!("{what}: every partition served as expected"),
        parts as usize == PARTITIONS && h as usize == hits && c as usize == computed && q == 0.0,
        format!("{parts} partitions, {h} cache hits, {c} computed, {q} quarantined"),
    );
}

fn reference(rows: &Rows) -> Result<Mat, String> {
    let (eig, _) = span("core.robust.serial_reference", || {
        layers::fit(&data::pca_config(DIM, COMPONENTS, MEMORY), &rows.rows)
    });
    Ok(eig?.basis)
}

fn check_merged(r: &mut Report, snapshot: &Path, reference: &Mat) {
    match astro_stream_pca::engine::read_snapshot(snapshot) {
        Ok(eig) => {
            let dist = distance(&eig, reference, COMPARED);
            r.check(
                "merged eigensystem near the serial reference",
                dist <= MAX_DISTANCE,
                format!("sin angle {dist:.4} <= {MAX_DISTANCE}, leading component"),
            );
        }
        Err(e) => r.check("merged snapshot readable", false, e),
    }
}

pub fn untraced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (rows, csv) = inputs(ctx)?;
    let reference = reference(&rows)?;
    let csv_s = csv.to_string_lossy().to_string();
    let cold_out = ctx.work.join("cold.snapshot");
    let warm_out = ctx.work.join("warm.snapshot");
    let (mut setup, mut rate, mut cold, mut warm, mut cpu, mut rss) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let deadline = Instant::now() + ctx.seconds;
    let mut runs = 0;
    while runs == 0 || Instant::now() < deadline {
        runs += 1;
        let state = proc::fresh_dir(&ctx.work, "state")?;
        let state_s = state.to_string_lossy().to_string();
        let c = pass(ctx, &csv_s, &state_s, &cold_out.to_string_lossy())?;
        let w = pass(ctx, &csv_s, &state_s, &warm_out.to_string_lossy())?;
        r.check(
            "cold and warm backfill exit 0",
            c.exit.ok && w.exit.ok,
            "exit status",
        );
        check_counts(r, "cold", c.counts, 0, PARTITIONS);
        check_counts(r, "warm", w.counts, PARTITIONS, 0);
        let same = match (std::fs::read(&cold_out), std::fs::read(&warm_out)) {
            (Ok(a), Ok(b)) => a == b,
            _ => false,
        };
        r.check(
            "warm snapshot byte-identical to cold",
            same,
            "merged snapshot files",
        );
        check_merged(r, &cold_out, &reference);
        let Some(pool) = c.pool else {
            r.check(
                "cold pass observed starting its pool",
                false,
                "too fast to see",
            );
            continue;
        };
        setup.push((pool - c.launched).as_secs_f64());
        rate.push(ROWS as f64 / (c.exit.at - pool).as_secs_f64());
        cold.push((c.exit.at - c.launched).as_secs_f64() * 1e3);
        warm.push((w.exit.at - w.launched).as_secs_f64() * 1e3);
        cpu.push(c.exit.usage.cpu_s() + w.exit.usage.cpu_s());
        rss.push(c.exit.usage.peak_rss_mb.max(w.exit.usage.peak_rss_mb));
    }
    println!(
        "backfill: {} cold + warm pairs over {ROWS} rows in {PARTITIONS} partitions",
        setup.len()
    );
    record(
        r,
        "setup_s",
        "s",
        "cold launch to partition pool start",
        &setup,
    );
    record(
        r,
        "tuples_per_s",
        "tuples/s",
        "rows / pool start to cold exit",
        &rate,
    );
    record(
        r,
        "result_p50_ms",
        "ms",
        "backfill_cold_s x 1000: cold launch to merged snapshot written",
        &cold,
    );
    record(
        r,
        "response_p50_ms",
        "ms",
        "backfill_warm_s x 1000: warm launch to merged snapshot written",
        &warm,
    );
    record(
        r,
        "cpu_s",
        "CPU-s",
        "user + sys of the cold and warm pass",
        &cpu,
    );
    record(
        r,
        "peak_rss_mb",
        "MB",
        "larger peak RSS of the two passes",
        &rss,
    );
    Ok(())
}

pub fn traced(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let (rows, csv) = inputs(ctx)?;
    let reference = reference(&rows)?;
    let (parts, _) = span("engine.backfill.partition_csv_rows", || {
        partition_csv_rows(&csv, PARTITIONS)
    });
    let parts = parts.map_err(|e| format!("partition: {e}"))?;
    // One cold pass into a fresh store and one warm pass over it: the
    // library call behind each `spca backfill`.
    let pair = || -> Result<Pair, String> {
        let cfg = BackfillConfig {
            pca: data::pca_config(DIM, COMPONENTS, MEMORY),
            workers: WORKERS,
            state_dir: proc::fresh_dir(&ctx.work, "state")?,
        };
        let threads = crate::sys::PeakThreads::start();
        let before = crate::sys::self_usage();
        let (cold, cold_d) = span("engine.backfill.cold", || backfill(&cfg, &parts));
        let (warm, warm_d) = span("engine.backfill.warm", || backfill(&cfg, &parts));
        let after = crate::sys::self_usage();
        Ok(Pair {
            cold: cold.map_err(|e| format!("cold backfill: {e}"))?,
            warm: warm.map_err(|e| format!("warm backfill: {e}"))?,
            cold_d,
            warm_d,
            threads: threads.stop(),
            user_s: after.user_s - before.user_s,
            sys_s: after.sys_s - before.sys_s,
        })
    };
    let (run, overhead) = super::alternate(ctx.seconds, pair, |p| 1.0 / p.cold_d.as_secs_f64())?;
    r.set("trace.overhead", overhead);
    let Pair {
        cold,
        warm,
        cold_d,
        warm_d,
        threads,
        user_s,
        sys_s,
    } = run;
    println!(
        "backfill (in-process): cold {:.3} s, warm {:.3} s",
        cold_d.as_secs_f64(),
        warm_d.as_secs_f64()
    );
    let as_counts = |s: &astro_stream_pca::streams::backfill::BackfillStats| {
        [
            s.partitions as f64,
            s.cache_hits as f64,
            s.computed as f64,
            s.quarantined as f64,
        ]
    };
    check_counts(r, "cold", as_counts(&cold.stats), 0, PARTITIONS);
    check_counts(r, "warm", as_counts(&warm.stats), PARTITIONS, 0);
    let cold_bytes = astro_stream_pca::engine::persist::encode_snapshot(&cold.merged);
    r.check(
        "warm merged eigensystem byte-identical to cold",
        cold_bytes == astro_stream_pca::engine::persist::encode_snapshot(&warm.merged),
        "snapshot encoding",
    );
    let merged_path = ctx.work.join("cold.snapshot");
    std::fs::write(&merged_path, &cold_bytes).map_err(|e| e.to_string())?;
    check_merged(r, &merged_path, &reference);
    r.set(
        "streams.backfill.cache_hits",
        (cold.stats.cache_hits + warm.stats.cache_hits) as f64,
    );
    r.set(
        "streams.backfill.computed",
        (cold.stats.computed + warm.stats.computed) as f64,
    );
    r.set(
        "streams.backfill.quarantined",
        (cold.stats.quarantined + warm.stats.quarantined) as f64,
    );
    r.set("proc.cpu_user_s", user_s);
    r.set("proc.cpu_sys_s", sys_s);
    r.set("proc.threads_peak", threads as f64);
    // No dataflow runs here: its operator and link counters are zero.
    layers::op_counters(r, &[], Duration::from_secs(1));
    layers::probe(
        r,
        &rows,
        &csv,
        &data::pca_config(DIM, COMPONENTS, MEMORY),
        cold.per_partition.clone(),
    )?;
    layers::absent(r, NOT_RUN);
    Ok(())
}

struct Pair {
    cold: astro_stream_pca::engine::BackfillOutcome,
    warm: astro_stream_pca::engine::BackfillOutcome,
    cold_d: Duration,
    warm_d: Duration,
    threads: usize,
    user_s: f64,
    sys_s: f64,
}

/// Layers `backfill` does not run.
const NOT_RUN: &[&str] = &[
    "engine.sync.shares",
    "engine.sync.merges",
    "streams.checkpoint.generations",
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
];
