#!/usr/bin/env bash
# Rewrites every committed artifact in place, from the repository root.
#
# Each artifact is a function of the simulation only, so on an unchanged
# tree the script leaves `git status --porcelain` empty on any host; CI
# runs it and then `git diff --exit-code`. After an intended change, run
# it and commit what it rewrote. A binary that exits non-zero (a traced
# number that diverged, a failed attribution or counter check, a lint
# violation, a broken recovery invariant) fails the script.
#
# Usage: scripts/regen.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
bin="${CARGO_TARGET_DIR:-target}/release"

# Table 3, Figures 6-11 and the 96-cell matrix.
"$bin/figures" tiny --matrix-out BENCH_baseline.json > FIGURES_tiny.txt
# The same at full size, where the paper's shapes show (EXPERIMENTS.md's
# shape checklist, asserted by tests/paper_claims.rs).
"$bin/figures" full --matrix-out BENCH_full.json > FIGURES_full.txt
# TRACE_summary.jsonl and DEOPT_events.jsonl, behind the trace checks.
"$bin/figures" tiny db --trace --matrix-out - > /dev/null
# STRIDE_agreement.jsonl, behind the lint.
"$bin/spf-lint" tiny
# The serving fleet, then a denser one under the seeded fault plan.
"$bin/spf-serve" --tenants 100 --requests 250 --out SERVE_baseline.json
"$bin/spf-serve" --tenants 16 --requests 200 --mean-interarrival 100000 \
  --chaos --out CHAOS_baseline.json --fault-events-out FAULT_events.jsonl
