#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the repo root.
#
#   benchmark/run.sh [--quick] [--seed S] [--seconds N] [--workload W]
#       the whole suite -> benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last line of stdout is the result as JSON
#   benchmark/run.sh verify | compare A.json B.json | manifest
#
# Exits non-zero on a failed build, a failed check or a failed cell.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/sysbench" "$@"
