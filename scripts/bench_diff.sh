#!/usr/bin/env bash
# Compare two BENCH_matrix.json sweeps (simulated-drift check).
# Usage: scripts/bench_diff.sh OLD.json NEW.json
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run -q --release -p spf-bench --bin bench_diff -- "$@"
