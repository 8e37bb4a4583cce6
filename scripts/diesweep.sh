#!/usr/bin/env bash
# diesweep.sh — replay a timed workload open-loop across channel × die ×
# plane flash geometries and record the kIOPS-vs-dies curve plus the
# budgeted-arm map-op/data-op overlap (Stats.MetaOverlap).
#
# Usage: scripts/diesweep.sh [PR-number] [dies]
#   scripts/diesweep.sh 8          → writes BENCH_PR8.json (and prints the table)
#   scripts/diesweep.sh 8 1,4      → sweep only those die counts
#
# Env knobs:
#   PLANES    planes per die, every row        (default 2)
#   WORKERS   host queues for the replay       (default 4)
#   GAMMA     LeaFTL error bound               (default 0)
#   WORKLOAD  timed workload to replay         (default zipf-hot)
#   SEED      workload generation seed         (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:-8}"
DIES="${2:-1,2,4}"
PLANES="${PLANES:-2}"
WORKERS="${WORKERS:-4}"
GAMMA="${GAMMA:-0}"
WORKLOAD="${WORKLOAD:-zipf-hot}"
SEED="${SEED:-1}"

echo "building..." >&2
go build ./cmd/leaftl-bench

out="BENCH_PR${PR}.json"
echo "== die sweep (dies=$DIES planes=$PLANES workers=$WORKERS workload=$WORKLOAD gamma=$GAMMA seed=$SEED) ==" >&2
./leaftl-bench -diesweep \
  -dies "$DIES" -planes "$PLANES" -workers "$WORKERS" \
  -sweep-workload "$WORKLOAD" \
  -gamma "$GAMMA" -seed "$SEED" \
  -json "$out"
rm -f leaftl-bench

echo "wrote $out" >&2
