#!/usr/bin/env bash
# torture.sh — run the seeded crash-torture matrix (mapping budgets ×
# exactness bitmap, each cell kill-recover-verified) plus the aged-device
# fault-injection sweep, and record crash-point coverage and reliability
# counters.
#
# Usage: scripts/torture.sh [PR-number] [mode]
#   scripts/torture.sh 6        → quick scale, writes BENCH_PR6.json
#   scripts/torture.sh 6 micro  → micro scale CI smoke (no JSON artifact)
#
# Env knobs:
#   SEED          workload + crash seed             (default 1)
#   FAULT_SEED    fault-model seed                  (default: SEED)
#   CRASH_POINTS  crashes injected per matrix cell  (default 5)
#   RBERS         comma list of base RBERs          (default 1e-7,1e-5,5e-5,1e-4,5e-4)
#   GAMMA         LeaFTL error bound                (default 8)
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:-6}"
MODE="${2:-quick}"
SEED="${SEED:-1}"
FAULT_SEED="${FAULT_SEED:-$SEED}"
CRASH_POINTS="${CRASH_POINTS:-5}"
RBERS="${RBERS:-1e-7,1e-5,5e-5,1e-4,5e-4}"
GAMMA="${GAMMA:-8}"

echo "building..." >&2
go build ./cmd/leaftl-bench

flags=(-torture -seed "$SEED" -fault-seed "$FAULT_SEED" -gamma "$GAMMA"
  -crash-points "$CRASH_POINTS" -fault-rber "$RBERS")
if [[ "$MODE" == "micro" ]]; then
  # CI smoke: fastest scale, fewer crash points, two RBER points, table
  # output only.
  ./leaftl-bench "${flags[@]}" -micro -crash-points 2 -fault-rber 1e-7,1e-4
else
  out="BENCH_PR${PR}.json"
  echo "== torture (seed=$SEED fault_seed=$FAULT_SEED crash_points=$CRASH_POINTS rbers=$RBERS gamma=$GAMMA) ==" >&2
  ./leaftl-bench "${flags[@]}" -json "$out"
  echo "wrote $out" >&2
fi
rm -f leaftl-bench
