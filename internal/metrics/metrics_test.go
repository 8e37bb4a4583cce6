package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	mean := h.MeanDuration()
	if mean < 50*time.Microsecond || mean > 51*time.Microsecond {
		t.Errorf("mean = %v, want ~50.5µs", mean)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var samples []float64
	for i := 0; i < 100000; i++ {
		v := rng.ExpFloat64() * 100e-6 // exponential latencies ~100µs
		samples = append(samples, v)
		h.ObserveValue(v)
	}
	sort.Float64s(samples)
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(float64(len(samples))*p/100)-1]
		got := h.Percentile(p)
		if got < exact*0.9 || got > exact*1.1 {
			t.Errorf("p%v = %g, exact %g (>10%% off)", p, got, exact)
		}
	}
	if h.Percentile(0) > h.Percentile(100) {
		t.Error("p0 > p100")
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.ObserveValue(0)   // below first bucket
	h.ObserveValue(1e6) // way above last bucket
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Percentile(100) != 1e6 {
		t.Errorf("max = %v", h.Percentile(100))
	}
}

func TestIntDist(t *testing.T) {
	d := NewIntDist([]int{5, 1, 3, 2, 4})
	if d.Count() != 5 || d.Mean() != 3 || d.Max() != 5 {
		t.Errorf("count=%d mean=%v max=%d", d.Count(), d.Mean(), d.Max())
	}
	if d.Percentile(50) != 3 {
		t.Errorf("p50 = %d", d.Percentile(50))
	}
	if d.Percentile(99) != 5 {
		t.Errorf("p99 = %d", d.Percentile(99))
	}
	if d.Percentile(0) != 1 {
		t.Errorf("p0 = %d", d.Percentile(0))
	}
	if got := d.CDFAt(3); got != 0.6 {
		t.Errorf("CDF(3) = %v", got)
	}
	if got := d.CDFAt(0); got != 0 {
		t.Errorf("CDF(0) = %v", got)
	}
	if got := d.CDFAt(5); got != 1 {
		t.Errorf("CDF(5) = %v", got)
	}
}

func TestIntDistEmpty(t *testing.T) {
	d := NewIntDist(nil)
	if d.Count() != 0 || d.Mean() != 0 || d.Percentile(99) != 0 || d.Max() != 0 || d.CDFAt(5) != 0 {
		t.Error("empty distribution not zeroed")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count %d", s.Count)
	}
	// Log buckets are ~7.2% wide: accept 10% error at each percentile.
	within := func(got time.Duration, wantUS float64) bool {
		g := float64(got.Nanoseconds()) / 1e3
		return g > wantUS*0.9 && g < wantUS*1.1
	}
	if !within(s.P50, 500) || !within(s.P95, 950) || !within(s.P99, 990) || !within(s.P999, 999) {
		t.Errorf("summary %v", s)
	}
	if s.Peak != time.Millisecond {
		t.Errorf("peak %v, want 1ms", s.Peak)
	}
	for _, want := range []string{"n=1000", "p50=", "p999="} {
		if !strings.Contains(s.String(), want) {
			t.Errorf("String() %q missing %q", s.String(), want)
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewHistogram().Summary()
	if s.Count != 0 || s.Mean != 0 || s.P999 != 0 || s.Peak != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

// TestEmptyHistogramJSONSafe pins the empty-histogram contract: every
// statistic of a zero-sample histogram is exactly 0 (not NaN/Inf), so a
// report built from one marshals cleanly — encoding/json rejects NaN.
func TestEmptyHistogramJSONSafe(t *testing.T) {
	h := NewHistogram()
	stats := map[string]float64{
		"mean": h.Mean(),
		"p0":   h.Percentile(0),
		"p50":  h.Percentile(50),
		"p100": h.Percentile(100),
		"max":  h.Max(),
	}
	for name, v := range stats {
		if v != 0 {
			t.Errorf("%s = %v on empty histogram, want 0", name, v)
		}
	}
	if _, err := json.Marshal(stats); err != nil {
		t.Fatalf("empty-histogram stats do not marshal: %v", err)
	}
}

// TestHistogramRejectsNaN: NaN samples are dropped and NaN percentile
// queries report 0, closing the remaining NaN inlets.
func TestHistogramRejectsNaN(t *testing.T) {
	h := NewHistogram()
	h.ObserveValue(math.NaN())
	if h.Count() != 0 {
		t.Errorf("NaN sample recorded (count %d)", h.Count())
	}
	h.ObserveValue(1e-3)
	if got := h.Percentile(math.NaN()); got != 0 {
		t.Errorf("Percentile(NaN) = %v, want 0", got)
	}
	if m := h.Mean(); math.IsNaN(m) {
		t.Error("mean went NaN")
	}
}

// TestObserveMatchesBucketOf pins Observe's integer bucketing to the
// logarithmic bucketOf that ObserveValue and the percentile math use:
// every duration must land in bucketOf(d.Seconds())'s bucket, and a
// histogram fed through Observe must equal one fed the same samples
// through ObserveValue — counts, total, sum, min and max — for every
// nanosecond below 2·10⁷, ±3 ns around every bucket floor, 5 M seeded
// random durations below 2⁴⁴ ns, and zero and negative durations.
func TestObserveMatchesBucketOf(t *testing.T) {
	h, ref := NewHistogram(), NewHistogram()
	check := func(d time.Duration) {
		if got, want := bucketOfNs(int64(d)), bucketOf(d.Seconds()); got != want {
			t.Fatalf("Observe(%d ns) buckets to %d, bucketOf(d.Seconds()) to %d", int64(d), got, want)
		}
		h.Observe(d)
		ref.ObserveValue(d.Seconds())
	}
	for _, d := range []time.Duration{0, -1, -2, -1000, -time.Hour, math.MinInt64} {
		check(d)
	}
	for n := time.Duration(1); n < 2e7; n++ {
		check(n)
	}
	for _, f := range histFloorNs {
		for n := f - 3; n <= f+3; n++ {
			check(time.Duration(n))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000_000; i++ {
		check(time.Duration(rng.Int63n(1 << 44)))
	}
	if !reflect.DeepEqual(h, ref) {
		t.Errorf("Observe histogram total=%d sum=%v min=%v max=%v, ObserveValue %d/%v/%v/%v (or counts differ)",
			h.total, h.sum, h.min, h.max, ref.total, ref.sum, ref.min, ref.max)
	}
}

// TestHistogramObserveZeroAllocs pins the per-request cost that matters
// most: recording a latency allocates nothing.
func TestHistogramObserveZeroAllocs(t *testing.T) {
	h := NewHistogram()
	d := time.Duration(1)
	if avg := testing.AllocsPerRun(10000, func() {
		h.Observe(d)
		d = d*3 + 7
		if d > time.Hour {
			d = 1
		}
	}); avg != 0 {
		t.Errorf("Observe: %v allocs, want 0", avg)
	}
}
