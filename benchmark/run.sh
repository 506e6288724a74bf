#!/usr/bin/env bash
# The repo benchmark: builds the harness, runs the workloads, prints every
# metric as `workload name value unit`, writes benchmark/out/results.json,
# and exits non-zero on any correctness failure.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--traced]
#                    [--repeat-check [--record]]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --print-manifest
#
# The second form is the one BENCHMARK.json names: one workload, in one
# process, ending in the result line. See benchmark/README.md.
set -euo pipefail

# Run from the root of the checkout, wherever the script was called from:
# the harness reads and writes only paths relative to it.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The harness is a package of its own; build output goes to
# $CARGO_TARGET_DIR when the caller sets one, else next to the package.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
harness="$target/release/spf-benchmark"

# glibc raises its mmap threshold to the size of the last big block freed,
# so whether a VM's heap comes zeroed from the kernel (only touched pages
# resident) or recycled from the brk heap (all of it memset) depends on
# allocation history; peak RSS of one and the same run then reads 29 MB or
# 44 MB. Setting the threshold, at its initial value, stops it moving.
export MALLOC_MMAP_THRESHOLD_=131072

command=suite
for arg in "$@"; do
    case "$arg" in
        --trace) command=run ;;
        --print-manifest) exec "$harness" manifest ;;
    esac
done
exec "$harness" "$command" "$@"
