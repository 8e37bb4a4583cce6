// Package metrics provides the measurement plumbing for the evaluation:
// log-bucketed latency histograms with percentile queries (Figures 18 and
// 23), running means, and CDF extraction over integer samples (Figures 5,
// 10, 12).
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Histogram is a logarithmically bucketed latency histogram. Buckets grow
// by ~7.2% per step (96 buckets per decade), bounding percentile error
// under 4% — plenty for distribution *shape* comparisons.
//
// Empty-histogram contract: with zero recorded samples every statistic —
// Mean, Percentile (for any p), Max, and all Summary fields — is exactly
// 0, never NaN or ±Inf, so zero-sample histograms (an idle queue, a
// scheme that never missed) serialize cleanly into the JSON reports
// (encoding/json rejects NaN outright).
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
}

const (
	histBucketsPerDecade = 96
	histMinValue         = 1e-9 // 1ns
	histBuckets          = 96 * 12
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.Inf(1)}
}

func bucketOf(v float64) int {
	if v < histMinValue {
		return 0
	}
	b := int(math.Log10(v/histMinValue) * histBucketsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histFloorNs[b] is the shortest duration, in whole nanoseconds, that
// bucketOf puts in bucket b or above (histFloorNs[0] is 1). Observe buckets
// a Duration by comparing integers against these floors instead of taking
// a logarithm. They are found once, at init, by bisecting over bucketOf
// itself, so an integer duration lands where bucketOf(d.Seconds()) puts
// it by construction.
var histFloorNs [histBuckets]int64

// histStart[histKey(n)] is bucketOf of the smallest n with that key: where
// Observe starts its walk up the floors. A key covers one integer below
// 64 and 1/32 of a power of two above, which spans at most three buckets.
// Durations of histTopBits bits or more are past the last floor.
var histStart [64 + 32*(histTopBits-5)]uint16

const histTopBits = 40

func histSeconds(n int64) float64 { return time.Duration(n).Seconds() }

func init() {
	histFloorNs[0] = 1
	for b := 1; b < histBuckets; b++ {
		// bucketOf(lo) ≥ b-1, and lo + lo/16 + 1 is over two buckets
		// above lo, so bucket b's floor lies in [lo, lo + lo/16 + 2).
		lo := histFloorNs[b-1]
		n := lo + int64(sort.Search(int(lo/16+2), func(i int) bool {
			return bucketOf(histSeconds(lo+int64(i))) >= b
		}))
		if bucketOf(histSeconds(n)) < b {
			panic("metrics: histogram floor bisection overran its bracket")
		}
		histFloorNs[b] = n
	}
	if histFloorNs[histBuckets-1] >= 1<<histTopBits {
		panic("metrics: histogram floors outgrew histStart")
	}
	for k := range histStart {
		lo := int64(k)
		if k >= 64 {
			s := (k - 64) / 32
			lo = int64(32+(k-64)%32) << s
		}
		histStart[k] = uint16(bucketOf(histSeconds(lo)))
	}
}

// histKey indexes histStart: n itself below 64, else the position of n's
// top bit and the five bits under it.
func histKey(n int64) int {
	if n < 64 {
		return int(n)
	}
	s := bits.Len64(uint64(n)) - 6
	return 64 + 32*s + int(n>>s)&31
}

// bucketOfNs is bucketOf(time.Duration(n).Seconds()) without the
// logarithm.
func bucketOfNs(n int64) int {
	if n < histFloorNs[1] {
		return 0
	}
	if n >= histFloorNs[histBuckets-1] {
		return histBuckets - 1
	}
	b := int(histStart[histKey(n)])
	for n >= histFloorNs[b+1] {
		b++
	}
	return b
}

func bucketValue(b int) float64 {
	return histMinValue * math.Pow(10, float64(b)/histBucketsPerDecade)
}

// Observe records one duration. It buckets d by its integer nanoseconds
// (bucketOfNs), which matches ObserveValue(d.Seconds()) bucket for bucket
// without taking a logarithm.
func (h *Histogram) Observe(d time.Duration) {
	h.add(bucketOfNs(int64(d)), d.Seconds())
}

// ObserveValue records one sample in seconds. NaN samples are dropped —
// recording one would poison the mean for every later reader.
func (h *Histogram) ObserveValue(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.add(bucketOf(v), v)
}

// add records sample v, in seconds, in bucket b.
func (h *Histogram) add(b int, v float64) {
	h.counts[b]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the sample mean in seconds (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Percentile returns the p-th percentile (p in [0,100]) in seconds.
// An empty histogram reports 0 for every p, and a NaN p reports 0 —
// both so malformed inputs cannot leak NaN into JSON emitters.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 || math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := uint64(math.Ceil(float64(h.total) * p / 100))
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Max returns the largest sample in seconds (0 with no samples).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Summary is the tail-latency digest of a histogram: the percentiles
// the paper's latency figures (18, 23) and the open-loop replay report.
// A zero-sample histogram digests to the zero Summary (see the
// empty-histogram contract on Histogram).
type Summary struct {
	Count                     uint64
	Mean                      time.Duration
	P50, P95, P99, P999, Peak time.Duration
}

// Summary digests the histogram into p50/p95/p99/p999 plus mean and
// peak latency.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.MeanDuration(),
		P50:   h.PercentileDuration(50),
		P95:   h.PercentileDuration(95),
		P99:   h.PercentileDuration(99),
		P999:  h.PercentileDuration(99.9),
		Peak:  time.Duration(h.Max() * float64(time.Second)),
	}
}

// String renders the summary on one line ("n=... mean=... p50=... ...").
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond), s.Peak.Round(time.Microsecond))
}

// MeanDuration returns Mean as a time.Duration.
func (h *Histogram) MeanDuration() time.Duration {
	return time.Duration(h.Mean() * float64(time.Second))
}

// PercentileDuration returns Percentile as a time.Duration.
func (h *Histogram) PercentileDuration(p float64) time.Duration {
	return time.Duration(h.Percentile(p) * float64(time.Second))
}

// IntDist summarizes an integer sample set (CRB sizes, level counts,
// segment lengths).
type IntDist struct {
	sorted []int
	sum    int64
}

// NewIntDist builds a distribution over the samples.
func NewIntDist(samples []int) *IntDist {
	s := append([]int(nil), samples...)
	sort.Ints(s)
	var sum int64
	for _, v := range s {
		sum += int64(v)
	}
	return &IntDist{sorted: s, sum: sum}
}

// Count returns the number of samples.
func (d *IntDist) Count() int { return len(d.sorted) }

// Mean returns the sample mean.
func (d *IntDist) Mean() float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	return float64(d.sum) / float64(len(d.sorted))
}

// Percentile returns the p-th percentile (nearest-rank).
func (d *IntDist) Percentile(p float64) int {
	if len(d.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return d.sorted[0]
	}
	idx := int(math.Ceil(float64(len(d.sorted))*p/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.sorted) {
		idx = len(d.sorted) - 1
	}
	return d.sorted[idx]
}

// Max returns the largest sample.
func (d *IntDist) Max() int {
	if len(d.sorted) == 0 {
		return 0
	}
	return d.sorted[len(d.sorted)-1]
}

// CDFAt returns the fraction of samples ≤ v.
func (d *IntDist) CDFAt(v int) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	i := sort.SearchInts(d.sorted, v+1)
	return float64(i) / float64(len(d.sorted))
}

// FormatBytes renders a byte count in human units (KiB/MiB/GiB).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
