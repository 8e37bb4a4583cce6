package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted
// by the nearest-rank rule, and how many samples lie beyond it. The
// log-bucketed metrics.Histogram is 7.2% wide per bucket, too coarse for
// the bounds these numbers are held to.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	// The small term keeps a rank that is whole in exact arithmetic (99.9%
	// of 1000) from being pushed up by the division's rounding.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1], len(sorted) - rank
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOfSlices is the host-time estimator behind host_req_per_s: the same
// stream is timed in equal slices on several fresh devices, and each
// slice counts with the fastest of its repeats. Interference from the
// machine only ever adds time, so the per-slice minimum is the closest
// any repeat came to the undisturbed cost; summing minima over slices
// lets a run that was disturbed in one place still contribute its clean
// slices. It returns the estimated nanoseconds for the whole stream.
func minOfSlices(repeats [][slices]int64) int64 {
	var total int64
	for s := 0; s < slices; s++ {
		best := int64(math.MaxInt64)
		for _, r := range repeats {
			if r[s] < best {
				best = r[s]
			}
		}
		total += best
	}
	return total
}

func sumSlices(r [slices]int64) int64 {
	var t int64
	for _, v := range r {
		t += v
	}
	return t
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
