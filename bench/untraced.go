package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"leaftl/internal/flash"
	"leaftl/internal/ssd"
)

// metric is one reported number. Samples is the number of observations
// behind a percentile, mean or rate (0 where the number is a plain count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

// result is one run of one workload, traced or not.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Error     string    `json:"error,omitempty"`
	Metrics   metricSet `json:"metrics"`
	// Digests are device StateDigests: after each sat repeat and after the
	// mid rung in an untraced run; after the untraced and the traced sat in
	// a traced run. Equal digests mean bit-identical device state.
	Digests []string `json:"digests"`
}

func newResult(sp spec, seed int64, traced bool, attempted int) *result {
	return &result{Workload: sp.name, Seed: seed, Traced: traced, Correct: true, Attempted: attempted, Metrics: metricSet{}}
}

// set records a metric under the unit its definition fixes.
func (r *result) set(name string, v float64, samples int) {
	d, ok := defByName[name]
	if !ok {
		panic("bench: metric " + name + " has no definition")
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit, Samples: samples}
}

// fail marks every operation of the workload failed (run protocol step 4).
func (r *result) fail(err error) *result {
	r.Correct = false
	r.Failed = r.Attempted
	r.Error = err.Error()
	return r
}

// traffic is the device and flash counters at one moment of a run.
type traffic struct {
	st ssd.Stats
	fl flash.Stats
}

func snapshot(dev *ssd.Device) traffic { return traffic{st: dev.Stats(), fl: dev.FlashStats()} }

func digest(dev *ssd.Device) string { return fmt.Sprintf("%016x", dev.StateDigest()) }

// sortedUs returns latencies as ascending microseconds.
func sortedUs(groups ...[]time.Duration) []float64 {
	var us []float64
	for _, g := range groups {
		for _, d := range g {
			us = append(us, float64(d)/1e3)
		}
	}
	sort.Float64s(us)
	return us
}

// sloOKFrac is the share of requests answered within the latency limit.
func sloOKFrac(us []float64) float64 {
	limit := sloNs / 1e3
	return ratio(float64(sort.Search(len(us), func(i int) bool { return us[i] > limit })), float64(len(us)))
}

// timedSetup is setup on the host clock, started from a collected heap so
// that the previous device's garbage is not collected on this one's time.
func timedSetup(sp spec, sc scale, seed int64) (*rig, float64, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := setup(sp, sc, fullScheme, seed, nil)
	return r, time.Since(t0).Seconds(), err
}

// runUntraced measures the end-to-end metrics of one workload: repeats x
// (setup + sat) on fresh devices, then the mid rung on the last device.
func runUntraced(sp spec, sc scale, seed int64, seconds int) *result {
	nSat, nMid := sp.counts(sc, seconds)
	res := newResult(sp, seed, false, nSat+nMid)

	var setups []float64
	var sliceSets [][slices]int64
	var first satResult
	var firstTraffic traffic
	var r *rig
	peakHeap := 0.0
	for rep := 0; rep < repeats; rep++ {
		r = nil // let the previous repeat's device be collected first
		var secs float64
		var err error
		if r, secs, err = timedSetup(sp, sc, seed); err != nil {
			return res.fail(fmt.Errorf("setup: %w", err))
		}
		setups = append(setups, secs)
		if err := r.dev.CheckInvariants(); err != nil {
			return res.fail(fmt.Errorf("after setup: %w", err))
		}
		sat, err := runSat(r, nSat, nil)
		if err != nil {
			return res.fail(fmt.Errorf("sat: %w", err))
		}
		if err := r.dev.CheckInvariants(); err != nil {
			return res.fail(fmt.Errorf("after sat: %w", err))
		}
		sliceSets = append(sliceSets, sat.sliceNs)
		peakHeap = max(peakHeap, sat.peakHeap)
		res.Digests = append(res.Digests, digest(r.dev))
		tr := snapshot(r.dev)
		if rep == 0 {
			first, firstTraffic = sat, tr
			continue
		}
		// Simulated results are deterministic for a seed: every repeat
		// must reproduce the first bit for bit.
		if sat.perSec != first.perSec || tr != firstTraffic || res.Digests[rep] != res.Digests[0] {
			return res.fail(fmt.Errorf("sat repeat %d diverged from repeat 0: %v vs %v req/s, digest %s vs %s",
				rep, sat.perSec, first.perSec, res.Digests[rep], res.Digests[0]))
		}
	}

	// Where setup is short the host's noise is a large share of it, so it
	// is timed a few more times, within a fixed budget.
	for len(setups) < maxSetups && sum(setups) < setupBudget.Seconds() {
		_, secs, err := timedSetup(sp, sc, seed)
		if err != nil {
			return res.fail(fmt.Errorf("setup: %w", err))
		}
		setups = append(setups, secs)
	}

	r.idle()
	mid, err := runRung(r, nMid, sp.rateMid/float64(sc.div), 1, nil)
	if err != nil {
		return res.fail(fmt.Errorf("mid: %w", err))
	}
	if err := r.dev.CheckInvariants(); err != nil {
		return res.fail(fmt.Errorf("after mid: %w", err))
	}
	res.Digests = append(res.Digests, digest(r.dev))
	end := snapshot(r.dev)
	all := sortedUs(mid.reads, mid.writes)
	peakHeap = max(peakHeap, heapMiB())

	res.set("setup_s", median(setups), len(setups))
	res.set("host_req_per_s", float64(nSat)/(float64(minOfSlices(sliceSets))/1e9), nSat)
	res.set("host_allocs_per_req", float64(first.mallocs)/float64(nSat), nSat)
	res.set("host_peak_heap_mb", peakHeap, 0)
	res.set("sim_sat_kiops", first.perSec/1e3, nSat)
	p99, _ := percentile(all, 99)
	res.set("sim_p99_us", p99, len(all))
	// A percentile is reported only with ten samples beyond it.
	p999, beyond := percentile(all, 99.9)
	if beyond < 10 {
		p999 = p99
	}
	res.set("sim_p999_us", p999, len(all))
	res.set("sim_slo_ok_frac", sloOKFrac(all), len(all))
	res.set("waf", ratio(float64(end.fl.PageWrites-r.base.PageWrites), float64(end.st.HostPagesWrite)), 0)
	res.set("read_amp", ratio(float64(end.fl.PageReads-r.base.PageReads), float64(end.st.HostPagesRead+end.st.HostPagesWrite)), 0)
	res.set("map_bytes", float64(r.real.FullSizeBytes()), 0)
	return res
}
