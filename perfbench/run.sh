#!/usr/bin/env bash
# Builds the workspace binaries (`repro`, `nanopowerd`) and the benchmark
# from source, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload registry-batch --seed 1 --seconds 20 --trace 0
#
# Run from the root of a nanopower checkout. Build output goes to
# $CARGO_TARGET_DIR (default `.bench_build`) and to stderr, so the last
# line of stdout stays the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/bench || ! -d golden ]]; then
    echo "perfbench: $root is not a nanopower checkout (no Cargo.toml, crates/ or golden/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p np-bench --bin repro --bin nanopowerd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
PERFBENCH_BIN_DIR="$CARGO_TARGET_DIR/release" exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
