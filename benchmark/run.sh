#!/usr/bin/env bash
# Builds the release `primepar` binary and the benchmark from source, then
# runs one workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload plan-zoo16 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p primepar --bin primepar >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/primepar-perfbench" \
    --primepar "$CARGO_TARGET_DIR/release/primepar" \
    --scratch "$CARGO_TARGET_DIR/perfbench-scratch" \
    "$@"
