#!/usr/bin/env bash
# abpairs.sh — paired A/B runs of the canonical benchmark: a committed
# revision (A) against the working tree (B), run alternately (A B, then
# B A, …) so that drift in the machine's speed falls on both sides alike.
#
# Usage: scripts/abpairs.sh <rev> <workload> <seed> <pairs>
#   scripts/abpairs.sh HEAD rand-write 1 10   → the working tree against HEAD
#
# <rev> is checked out with `git worktree add` under .bench_build/ from
# the local object store (nothing is fetched) and its benchmark is built
# there; the working tree's benchmark is built from bench/ as
# bench/run.sh builds it. Every run is `--workload <workload> --seed
# <seed> --trace 0` from its own checkout; the driver's JSON lines are
# kept in .bench_build/ab/. For every end-to-end metric BENCHMARK.json
# lists, the script prints each side's median and interquartile range,
# the ratio of the medians, how many pairs B won in the metric's better
# direction (ties count for neither side), whether the medians differ by
# more than A's IQR, and a verdict:
#   gain       B won at least 9 pairs in 10 and B's median beats A's by
#              more than A's IQR;
#   worse      B's median is worse than A's by more than the metric's
#              BENCHMARK.json bound (a fraction of A's median);
#   no change  anything else.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <rev> <workload> <seed> <pairs>" >&2
  exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/ab"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off

sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
wt="$build/ab-${sha:0:12}"
if [ ! -d "$wt" ]; then
  git -C "$root" worktree add --detach "$wt" "$sha" >&2
fi
echo "building A ($rev = ${sha:0:12}) and B (working tree)..." >&2
go build -C "$wt/bench" -o "$build/ab/bench-A" . >&2
go build -C "$root/bench" -o "$build/ab/bench-B" . >&2

log="$build/ab/${sha:0:12}-$workload-s$seed.jsonl"
: >"$log"
run() { # run <side> <pair>
  local dir=$wt line
  if [ "$1" = B ]; then dir=$root; fi
  line=$(cd "$dir" && "$build/ab/bench-$1" --workload "$workload" --seed "$seed" --trace 0 2>/dev/null | grep '^{')
  echo "$1 $2 $line" >>"$log"
  echo "pair $2: $1 done" >&2
}
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then run A "$i"; run B "$i"; else run B "$i"; run A "$i"; fi
done

python3 - "$log" "$root/BENCHMARK.json" <<'EOF'
import json, sys

runs = {"A": {}, "B": {}}
failed = {"A": 0, "B": 0}
for line in open(sys.argv[1]):
    side, pair, js = line.split(" ", 2)
    d = json.loads(js)
    runs[side][int(pair)] = d["metrics"]
    failed[side] += d["failed"]
metrics = json.load(open(sys.argv[2]))["end_to_end"]
pairs = sorted(set(runs["A"]) & set(runs["B"]))

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

print("%d pairs, failed requests A %d / B %d" % (len(pairs), failed["A"], failed["B"]))
print("%-20s %14s %14s %14s %14s %8s %6s %8s  %s" %
      ("metric", "A median", "A IQR", "B median", "B IQR", "B/A", "B wins", "gap>IQR", "verdict"))
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    a = [runs["A"][p][name]["value"] for p in pairs]
    b = [runs["B"][p][name]["value"] for p in pairs]
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    ma, mb = quantile(a, 0.5), quantile(b, 0.5)
    iqr_a = quantile(a, 0.75) - quantile(a, 0.25)
    iqr_b = quantile(b, 0.75) - quantile(b, 0.25)
    ratio = mb / ma if ma else float("nan")
    better_by = mb - ma if higher else ma - mb  # > 0 when B's median is better
    if pairs and 10 * wins >= 9 * len(pairs) and better_by > iqr_a:
        verdict = "gain"
    elif -better_by > bound * abs(ma):
        verdict = "worse"
    else:
        verdict = "no change"
    print("%-20s %14.6g %14.6g %14.6g %14.6g %8.4f %3d/%-2d %8s  %s" %
          (name, ma, iqr_a, mb, iqr_b, ratio, wins, len(pairs),
           "yes" if abs(mb - ma) > iqr_a else "no", verdict))
EOF
