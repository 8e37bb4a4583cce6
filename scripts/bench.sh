#!/usr/bin/env bash
# bench.sh — run the core micro benchmarks and record the results as
# BENCH_PR<N>.json so future PRs have a performance trajectory to compare
# against.
#
# Usage: scripts/bench.sh [PR-number] [output-file]
#   scripts/bench.sh 1            → writes BENCH_PR1.json
#   scripts/bench.sh 2 out.json   → writes out.json
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:-1}"
OUT="${2:-BENCH_PR${PR}.json}"
BENCHTIME="${BENCHTIME:-1s}"

echo "running core micro benchmarks..." >&2
MICRO_RAW=$(go test -bench 'BenchmarkLookup$|BenchmarkUpdate$|BenchmarkLearn256$|BenchmarkCompact$' \
  -benchmem -benchtime "$BENCHTIME" ./internal/core)

MICRO_JSON=$(printf '%s\n' "$MICRO_RAW" | awk '
  /^Benchmark/ {
    name=$1; sub(/-[0-9]+$/, "", name)
    ns=""; bytes=""; allocs=""
    for (i=2; i<NF; i++) {
      if ($(i+1) == "ns/op")     ns=$i
      if ($(i+1) == "B/op")      bytes=$i
      if ($(i+1) == "allocs/op") allocs=$i
    }
    if (out != "") out = out ",\n"
    out = out sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                      name, ns, (bytes==""?"null":bytes), (allocs==""?"null":allocs))
  }
  END { print out }
')

HOST=$(printf '%s\n' "$MICRO_RAW" | awk '/^cpu:/ { $1=""; sub(/^ /,""); print; exit }')

# Pre-change numbers, measured at the seed commit (ea8255b) on the same
# host the PR-1 results were recorded on — kept here so every regeneration
# of BENCH_PR1.json retains the comparison base for the 2x acceptance bar.
BASELINE='[
    {"name": "BenchmarkLearn256/gamma0", "ns_per_op": 17760, "bytes_per_op": 32704, "allocs_per_op": 230},
    {"name": "BenchmarkLearn256/gamma1", "ns_per_op": 9876, "bytes_per_op": 10840, "allocs_per_op": 85},
    {"name": "BenchmarkLearn256/gamma4", "ns_per_op": 8179, "bytes_per_op": 9824, "allocs_per_op": 63},
    {"name": "BenchmarkLookup/gamma0", "ns_per_op": 72.77, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkLookup/gamma1", "ns_per_op": 113.4, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkLookup/gamma4", "ns_per_op": 108.7, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BenchmarkUpdate", "ns_per_op": 82173, "bytes_per_op": 84062, "allocs_per_op": 596}
  ]'

cat > "$OUT" <<EOF
{
  "pr": ${PR},
  "date": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
  "host_cpu": "${HOST}",
  "go": "$(go env GOVERSION)",
  "benchtime": "${BENCHTIME}",
  "seed_baseline": ${BASELINE},
  "micro": [
${MICRO_JSON}
  ]
}
EOF

echo "wrote ${OUT}" >&2
