#!/usr/bin/env bash
# Builds rlb-serve and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from anywhere inside a checkout of the repository. Build output goes
# to $CARGO_TARGET_DIR (default .bench_build at the repository root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p rlb-serve --bin rlb-serve
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

# The workloads are defined at the library defaults: drop the knobs that
# would change what is computed or add observability work to it, and hold
# the load at two worker threads.
unset RLB_COMPLEXITY_SAMPLE RLB_COMPLEXITY_MAX_POINTS \
    RLB_ANN_NLISTS RLB_ANN_NPROBE RLB_ANN_MIN_TRAIN \
    RLB_SERVE_SESSIONS RLB_SERVE_TIMEOUT_MS RLB_SERVE_MAX_LINE \
    RLB_ALLOC_STATS RLB_OBS_FILE RLB_TRACE RLB_OBS_FOLDED
export RLB_THREADS=2
export RLB_LOG=warn
exec "$CARGO_TARGET_DIR/release/rlb-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/rlb-serve" "$@"
