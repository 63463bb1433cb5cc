//! The repository benchmark. One workload per run:
//!
//! ```text
//! perfbench --spca PATH --workload survey|wire|live-serve|backfill
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the `spca` binary from outside and prints the
//! end-to-end metrics; `--trace 1` replays the same workload and seed
//! through the library calls behind the CLI and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! non-zero when a correctness check failed. See `NOTES.md`.

mod data;
mod layers;
mod loadgen;
mod proc;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["survey", "wire", "live-serve", "backfill"];

/// What a workload run needs to know.
pub struct Ctx {
    pub spca: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    /// Scratch directory for this run's inputs and outputs.
    pub work: PathBuf,
}

struct Args {
    spca: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let num = |s: String, flag: &str| -> Result<u64, String> {
        s.parse().map_err(|_| format!("{flag}: cannot parse '{s}'"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let seconds = num(get("--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        spca: PathBuf::from(get("--spca")?),
        seed: num(get("--seed")?, "--seed")?,
        seconds,
        workload,
        trace,
    })
}

/// Host, toolchain and code identity, so every result says where it came
/// from.
fn provenance(args: &Args) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "provenance: workload = {}, seed = {}, seconds = {}, trace = {}, nproc = {nproc}, \
         cpu = {}, rustc = {rustc}, commit = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cpu_model(),
        commit()
    )
}

/// The git commit when the checkout is a repository; otherwise a content
/// hash of the program's sources (`src-<hash>`), which names the code as
/// precisely.
fn commit() -> String {
    if let Ok(o) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if o.status.success() {
            return String::from_utf8_lossy(&o.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        collect_files(Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!(
        "src-{:016x}",
        astro_stream_pca::streams::backfill::content_hash(&all)
    )
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(dir) = std::fs::read_dir(p) {
        for e in dir.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.spca.is_file() {
        eprintln!("perfbench: no spca binary at {}", args.spca.display());
        return ExitCode::FAILURE;
    }
    let origin = Instant::now();
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = proc::fresh_dir(&work, "").map(|_| ()) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", provenance(&args));
    let ctx = Ctx {
        spca: args.spca.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        work: work.clone(),
    };
    trace::set_enabled(args.trace);
    let mut report = Report::new();
    let result = if args.trace {
        workloads::traced(&args.workload, &ctx, &mut report)
    } else {
        workloads::untraced(&args.workload, &ctx, &mut report)
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = work.join("spans.json");
        match trace::write(&path, origin) {
            Ok(()) => println!("spans: {} written to {}", trace::count(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
    }
    let names = if args.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    for (name, unit) in &names {
        if let Some(v) = report.get(name) {
            println!("metric {name} = {v} {unit}");
        }
    }
    println!(
        "metric error_ratio = {} fraction ({} failed of {} attempted)",
        report.tally.error_ratio(),
        report.tally.failed,
        report.tally.attempted
    );
    // Inputs are large; keep only the small result files of the run.
    workloads::remove_inputs(&work);
    match report.json_line(&names) {
        Ok(line) => {
            println!("{line}");
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
