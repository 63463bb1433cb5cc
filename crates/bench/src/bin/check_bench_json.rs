//! CI gate for the recorded benchmark artifacts.
//!
//! Checks each path given as an argument — by default every
//! `BENCH_*.json` in the working directory — with
//! [`spca_bench::json::check`]: the file's `"schema"` field must name an
//! entry of the schema table, every field must have its kind, and every
//! gate must pass. Exits nonzero on any failure, so a hand-edited,
//! truncated or unrecognised artifact cannot land silently.
//!
//! ```text
//! cargo run --release -p spca-bench --bin check_bench_json [PATH...]
//! ```

use spca_bench::json::{artifacts_in, check, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn check_file(path: &Path) -> Result<&'static str, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read file: {e}"))?;
    check(&Json::parse(&text)?)
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if paths.is_empty() {
        paths = match artifacts_in(Path::new(".")) {
            Ok(found) if !found.is_empty() => found,
            Ok(_) => {
                eprintln!("error: no BENCH_*.json in the working directory");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot list the working directory: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(schema) => println!("{}: ok ({schema})", path.display()),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
