#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs it.
#
#   bash perfbench/run.sh --workload boils_div --seed 0 --seconds 30 --trace 0
#   bash perfbench/run.sh --calibrate
#   bash perfbench/run.sh --target boils_div
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); cargo's own messages go to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/boils-perfbench" "$@"
