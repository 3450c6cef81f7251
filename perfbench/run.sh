#!/usr/bin/env bash
# Build the release dot-serve and the benchmark, then run the benchmark
# from the root of the checkout. Arguments pass through to `perfbench run`:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dot-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" run --serve "$CARGO_TARGET_DIR/release/dot-serve" "$@"
