#!/usr/bin/env bash
# Builds the spca binary and the benchmark from this checkout's sources,
# then runs one workload. Run from the repository root:
#   bash perfbench/run.sh --workload survey --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin spca >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --spca "$CARGO_TARGET_DIR/release/spca" "$@"
