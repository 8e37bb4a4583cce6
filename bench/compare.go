package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one (seed, workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// row is one line of the comparison table.
type row struct {
	seed             int64
	workload, metric string
	unit             string
	old, new         float64 // medians over each side's repeats
	spread           float64 // widest relative range among either side's repeats
	bound            float64
	verdict          string
}

// worse returns by what share of old the new value is worse (negative
// when it is better).
func worse(old, new float64, better string) float64 {
	if old == 0 {
		if new == old {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (old - new) / math.Abs(old)
	}
	return (new - old) / math.Abs(old)
}

func relRange(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return ratio(hi-lo, math.Abs(median(vs)))
}

// compareSets judges new against old with each end-to-end metric's
// direction and bound from BENCHMARK.json. Sets are matched by seed; a
// side's repeats give its median and its spread. A metric whose repeats
// spread wider than its bound is reported unresolved, not unchanged. When
// both sides are passes of the same code, a difference beyond the bound is
// itself run-to-run spread, so it too is unresolved and not a regression.
// The last result says whether anything regressed or failed more often.
func compareSets(b benchmarkFile, old, new []set, sameCode bool) ([]row, bool) {
	var rows []row
	regressed := false
	seeds := map[int64]bool{}
	for _, s := range old {
		seeds[s.Seed] = true
	}
	var order []int64
	for _, s := range new {
		if seeds[s.Seed] {
			order = append(order, s.Seed)
			seeds[s.Seed] = false
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	values := func(sets []set, seed int64, workload, metric string) (vs []float64) {
		for i := range sets {
			if sets[i].Seed != seed {
				continue
			}
			if r := sets[i].find(workload, false); r != nil {
				if m, ok := r.Metrics[metric]; ok {
					vs = append(vs, m.Value)
				}
			}
		}
		return vs
	}
	failedFrac := func(sets []set, seed int64, workload string) float64 {
		worst := 0.0
		for i := range sets {
			if sets[i].Seed != seed {
				continue
			}
			for _, r := range sets[i].Runs {
				if r.Workload == workload {
					worst = math.Max(worst, ratio(float64(r.Failed), float64(r.Attempted)))
				}
			}
		}
		return worst
	}

	for _, seed := range order {
		for _, w := range b.Workloads {
			for _, d := range b.EndToEnd {
				ov, nv := values(old, seed, w.Name, d.Name), values(new, seed, w.Name, d.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				r := row{seed: seed, workload: w.Name, metric: d.Name, unit: d.Unit, bound: d.Bound,
					old: median(ov), new: median(nv), spread: math.Max(relRange(ov), relRange(nv)), verdict: verdictOK}
				by := worse(r.old, r.new, d.Better)
				switch {
				case by > d.Bound && !sameCode:
					r.verdict = verdictRegression
					regressed = true
				case r.spread > d.Bound, sameCode && math.Abs(by) > d.Bound:
					r.verdict = verdictUnresolved
				}
				rows = append(rows, r)
			}
			of, nf := failedFrac(old, seed, w.Name), failedFrac(new, seed, w.Name)
			r := row{seed: seed, workload: w.Name, metric: "failed_frac", unit: "fraction", old: of, new: nf, verdict: verdictOK}
			if nf > of {
				r.verdict = verdictRegression
				regressed = true
			}
			rows = append(rows, r)
		}
	}
	return rows, regressed
}

// printRows prints one row per (seed, workload, metric) with both values;
// the change is given as a share of old, which is the base of every ratio.
func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-4s %-18s %-20s %-9s %14s %14s %9s %7s %7s  %s\n",
		"seed", "workload", "metric", "unit", "old (base)", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		change := ratio(r.new-r.old, math.Abs(r.old))
		fmt.Fprintf(w, "%-4d %-18s %-20s %-9s %14.6g %14.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n",
			r.seed, r.workload, r.metric, r.unit, r.old, r.new, 100*change, 100*r.spread, 100*r.bound, r.verdict)
	}
}

// splitRepeats separates the two passes of a -check file.
func splitRepeats(sets []set) (a, b []set) {
	for _, s := range sets {
		if s.Repeat == "b" {
			b = append(b, s)
		} else {
			a = append(a, s)
		}
	}
	return a, b
}

// identical checks what must not differ between two passes over the same
// seed: every simulated metric and every state digest, bit for bit.
func identical(a, b set) []string {
	var diffs []string
	for _, ra := range a.Runs {
		rb := b.find(ra.Workload, ra.Traced)
		if rb == nil {
			diffs = append(diffs, fmt.Sprintf("%s traced=%v: missing from the second pass", ra.Workload, ra.Traced))
			continue
		}
		if fmt.Sprint(ra.Digests) != fmt.Sprint(rb.Digests) {
			diffs = append(diffs, fmt.Sprintf("%s traced=%v: digests %v vs %v", ra.Workload, ra.Traced, ra.Digests, rb.Digests))
		}
		for name, ma := range ra.Metrics {
			if defByName[name].Clock != "sim" {
				continue
			}
			if mb := rb.Metrics[name]; ma.Value != mb.Value {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v", ra.Workload, name, ma.Value, mb.Value))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}
