#!/usr/bin/env bash
# Builds the benchmark package and runs it from the root of the checkout.
# Every argument goes to the binary:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Without --workload all four workloads run in turn. The build goes to
# $CARGO_TARGET_DIR (default benchmark/target); results go to stdout (last
# line per workload: the JSON object) and to benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fbdr-benchmark" "$@"
