#!/usr/bin/env bash
# benchhistory.sh — aggregate every checked-in BENCH_PR<N>.json into one
# trajectory table, so a new PR's numbers land next to the whole history
# instead of a single predecessor. Each PR's benchmark recorded a
# different mode (micro counters, GC compare, memsweep, torture,
# core/die sweeps); the table extracts each file's headline numbers and
# any gates it carried. Files from modes that no longer exist list only
# their mode.
#
# Usage: scripts/benchhistory.sh            → prints the table
#        scripts/benchhistory.sh -markdown  → GitHub-flavored table
set -euo pipefail
cd "$(dirname "$0")/.."

MARKDOWN=0
[ "${1:-}" = "-markdown" ] && MARKDOWN=1

python3 - "$MARKDOWN" <<'EOF'
import glob, json, re, sys

markdown = sys.argv[1] == "1"
rows = []

def fmt_bytes(n):
    if n >= 1 << 20:
        return "%.1fMiB" % (n / (1 << 20))
    if n >= 1 << 10:
        return "%.1fKiB" % (n / (1 << 10))
    return "%dB" % n

for path in sorted(glob.glob("BENCH_PR*.json"),
                   key=lambda p: int(re.search(r"\d+", p).group())):
    pr = re.search(r"\d+", path).group()
    d = json.load(open(path))
    mode = d.get("mode", "micro")
    headline, gate = "-", "-"
    # meta-WAF / meta-writes trajectory: every mode that charges
    # translation-page traffic reports them for its headline LeaFTL cell,
    # so metadata-persistence cost is comparable across PRs.
    meta_cell = None

    if mode == "micro" or "micro" in d:
        micro = d.get("micro", [])
        lk = next((m for m in micro if "Lookup" in m.get("name", "")), None)
        if lk:
            headline = "%s %.0fns/op" % (
                lk["name"].replace("Benchmark", ""), lk.get("ns_per_op", 0))
        par = d.get("parallel_replay") or {}
        if isinstance(par, dict) and par.get("memory_reduction"):
            headline += ", %.1fx mem reduction" % par["memory_reduction"]
        mode = "micro"
    elif mode == "gc-compare":
        runs = d.get("runs", [])
        if runs:
            best = min(runs, key=lambda r: r.get("waf", 9e9))
            headline = "best WAF %.2f (%s/%s×%d)" % (
                best.get("waf", 0), best.get("workload", "?"),
                best.get("policy", "?"), best.get("streams", 0))
            meta_cell = best
    elif mode == "memsweep":
        runs = [r for r in d.get("runs", []) if r.get("scheme") == "LeaFTL"]
        if runs:
            tight = min(runs, key=lambda r: r.get("budget_bytes", 9e9))
            headline = "LeaFTL @%s budget: %.3f meta-reads/op" % (
                fmt_bytes(tight.get("budget_bytes", 0)), tight.get("miss_per_op", 0))
            meta_cell = tight
    elif mode == "openloop-replay":
        lea = [s for s in d.get("schemes", []) if "LeaFTL" in s.get("scheme", "")]
        if lea:
            headline = "LeaFTL p999 %.0fus" % lea[0].get("p999_us", 0)
            meta_cell = lea[0]
    elif mode == "torture":
        headline = "%d crashes over %d cells" % (
            d.get("total_crashes", 0), len(d.get("cells", [])))
        sweep = d.get("fault_sweep") or []
        gate = "fault sweep %d cells" % len(sweep) if sweep else "-"
    elif mode == "coresweep":
        runs = d.get("runs", [])
        if runs:
            best = max(runs, key=lambda r: r.get("kiops", 0))
            headline = "%.0f kIOPS @%d workers" % (
                best.get("kiops", 0), best.get("workers", 0))
        gate = "deterministic=%s monotone=%s" % (
            d.get("deterministic"), d.get("monotone_kiops_to_4_workers"))
    elif mode == "diesweep":
        headline = "%.2fx kIOPS 4 dies vs 1" % d.get("kiops_speedup_4_dies_vs_1", 0)
        gate = "monotone=%s overlap=%s" % (
            d.get("monotone_kiops_to_4_dies"), d.get("meta_overlap_positive"))

    if meta_cell is not None and "meta_waf" in meta_cell:
        metawaf = "%.4f" % meta_cell.get("meta_waf", 0)
        metawrites = str(meta_cell.get("meta_writes", 0))
        if meta_cell.get("journal"):
            metawrites += "+J"
    else:
        metawaf, metawrites = "-", "-"
    rows.append((pr, mode, headline, metawaf, metawrites, gate))

header = ("PR", "mode", "headline", "metaWAF", "metaW", "gates")
widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
if markdown:
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for r in rows:
        print("| " + " | ".join(str(c) for c in r) + " |")
else:
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
EOF
