#!/usr/bin/env bash
# Builds the server (`xmem-cli`) and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#
#   bash servebench/run.sh --workload warm-poll --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin xmem-cli 1>&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/servebench" --server "$CARGO_TARGET_DIR/release/xmem-cli" "$@"
