package main

import (
	"fmt"
	"runtime"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// rig is one aged, warmed device with the scheme it was built on. real is
// the scheme under test; the device may see it through the tracing wrapper.
type rig struct {
	dev  *ssd.Device
	real ftl.Scheme
	sp   spec
	sc   scale
	seed int64
	// base is the flash traffic up to the end of setup; the device's own
	// counters restart there (ResetMetrics), the array's do not.
	base flash.Stats
	// setupGCRuns is the number of GC runs aging and warm-up caused.
	setupGCRuns uint64
}

func (r *rig) source(g workload.Generator, stream int) *source {
	return &source{gen: g, logical: r.dev.LogicalPages(), seed: r.seed, stream: stream}
}

// setup builds a device and brings it to the aged steady state every
// phase is measured from (run protocol step 1): sequential prefill of the
// whole logical space, aging with the workload's own writes until as many
// pages again have been written, warm-up with the real mix, flush, idle.
// wrap, when non-nil, is applied to the scheme before the device sees it.
func setup(sp spec, sc scale, schemeName string, seed int64, wrap func(ftl.Scheme) ftl.Scheme) (*rig, error) {
	cfg := deviceConfig(sc, sp.poolBytes)
	real := newScheme(schemeName, int(cfg.DRAMBytes-cfg.BufferBytes()))
	seen := real
	if wrap != nil {
		seen = wrap(real)
	}
	dev, err := ssd.New(cfg, seen)
	if err != nil {
		return nil, fmt.Errorf("build device: %w", err)
	}
	r := &rig{dev: dev, real: real, sp: sp, sc: sc, seed: seed}
	logical := dev.LogicalPages()

	for lpa := 0; lpa < logical; lpa += prefillPages {
		if _, err := dev.Write(addr.LPA(lpa), min(prefillPages, logical-lpa)); err != nil {
			return nil, fmt.Errorf("prefill at LPA %d: %w", lpa, err)
		}
	}
	prefilled := dev.Stats().HostPagesWrite
	age := r.source(sp.age, streamAge)
	for dev.Stats().HostPagesWrite-prefilled < uint64(logical) {
		if age.chunk > 10_000 {
			return nil, fmt.Errorf("aging wrote %d of %d pages after %d chunks",
				dev.Stats().HostPagesWrite-prefilled, logical, age.chunk)
		}
		if err := trace.Replay(dev, age.next(ageChunk/sc.div)); err != nil {
			return nil, fmt.Errorf("aging chunk %d: %w", age.chunk-1, err)
		}
	}
	if err := trace.Replay(dev, r.source(sp.gen, streamWarm).next(sp.warm/sc.div)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("flush after warm-up: %w", err)
	}
	r.setupGCRuns = dev.Stats().GCRuns
	r.idle()
	dev.ResetMetrics()
	r.base = dev.FlashStats()
	return r, nil
}

// idle advances the simulated clock so background flash work drains.
func (r *rig) idle() { r.dev.AdvanceTo(r.dev.Now() + idleGap) }

// observer receives the replay loop's per-request events in traced runs.
// Untraced runs pass none, so their host time is the device's alone.
type observer interface {
	begin(i int, r trace.Request)
	// end reports the request's queue wait and device service time.
	end(i int, r trace.Request, wait, service time.Duration)
}

// loop drives a device with requests across the in-order host queues:
// request i goes to queue i mod queues, starts at its arrival or when its
// predecessor on that queue completes, and its latency is timed from its
// arrival. The device clock idles through arrival gaps. This is the
// schedule of trace.ReplayOpenLoop; state carries over between run calls
// so a stream can be replayed chunk by chunk.
type loop struct {
	dev    *ssd.Device
	base   time.Duration // device clock when the loop was created
	freeAt [queues]time.Duration
	end    time.Duration // completion of the latest-finishing request, from base
	next   int           // index of the next request in the whole stream
	obs    observer
	// keep asks for per-request latencies, split by direction.
	keep          bool
	reads, writes []time.Duration
}

func newLoop(dev *ssd.Device, keep bool, obs observer) *loop {
	return &loop{dev: dev, base: dev.Now(), keep: keep, obs: obs}
}

func (l *loop) run(reqs []trace.Request) error {
	dev := l.dev
	for _, r := range reqs {
		i := l.next
		l.next++
		q := i % queues
		start := r.Arrival
		if l.freeAt[q] > start {
			start = l.freeAt[q]
		}
		dev.AdvanceTo(l.base + start)
		if l.obs != nil {
			l.obs.begin(i, r)
		}
		var service time.Duration
		var err error
		if r.Op == trace.OpRead {
			service, err = dev.Read(r.LPA, r.Pages)
		} else {
			service, err = dev.Write(r.LPA, r.Pages)
		}
		if l.obs != nil {
			l.obs.end(i, r, start-r.Arrival, service)
		}
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, r, err)
		}
		complete := start + service
		l.freeAt[q] = complete
		if complete > l.end {
			l.end = complete
		}
		if l.keep {
			if r.Op == trace.OpRead {
				l.reads = append(l.reads, complete-r.Arrival)
			} else {
				l.writes = append(l.writes, complete-r.Arrival)
			}
		}
	}
	return nil
}

// throughput is the closed loop's simulated request rate: requests over
// the mean of the queues' finish times. The queues run side by side and
// never idle, so over a long run each finishes its share at the same pace;
// requests over the slowest queue's finish time measures the same thing
// but hinges on which queue the last few GC stalls happened to land on.
func (l *loop) throughput() float64 {
	var sum time.Duration
	for _, t := range l.freeAt {
		sum += t
	}
	return ratio(float64(l.next), sum.Seconds()/queues)
}

// heapMiB forces a collection and returns the heap still in use, so the
// figure is live memory and not how far the collector had fallen behind.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// satResult is one sat phase.
type satResult struct {
	n        int
	perSec   float64 // simulated requests per second
	sliceNs  [slices]int64
	mallocs  uint64
	peakHeap float64
	gen      *source
}

// runSat replays n requests of the mix closed-loop: arrivals one
// nanosecond apart make every request due at once, so each queue starts
// its next request when the previous one completes (the schedule of
// trace.ReplayOpenLoop{Queues: 8, Interarrival: 1}). The stream is
// generated and timed on the host clock in equal slices; heap is sampled
// after a forced collection at every heapEvery-th slice boundary, outside
// the timed regions.
func runSat(r *rig, n int, obs observer) (satResult, error) {
	res := satResult{n: n, peakHeap: heapMiB(), gen: r.source(r.sp.gen, streamSat)}
	l := newLoop(r.dev, false, obs)
	per := (n + slices - 1) / slices
	for s, done := 0, 0; s < slices && done < n; s++ {
		reqs := res.gen.next(min(per, n-done))
		for i := range reqs {
			reqs[i].Arrival = time.Duration(done + i)
		}
		done += len(reqs)
		m0 := mallocs()
		t0 := time.Now()
		err := l.run(reqs)
		res.sliceNs[s] = time.Since(t0).Nanoseconds()
		res.mallocs += mallocs() - m0
		if err != nil {
			return res, err
		}
		if s%heapEvery == heapEvery-1 {
			res.peakHeap = max(res.peakHeap, heapMiB())
		}
	}
	res.perSec = l.throughput()
	return res, nil
}

// rungResult is one open-loop rung.
type rungResult struct {
	n             int
	offered       float64 // requests per second
	makespan      time.Duration
	reads, writes []time.Duration
}

// runRung replays n requests of the mix open-loop with steady Poisson
// arrivals at the given rate; latency is timed from each request's due
// time, so the wait a stall imposes on later arrivals counts.
func runRung(r *rig, n int, rate float64, rung int, obs observer) (rungResult, error) {
	res := rungResult{n: n, offered: rate}
	gen := r.source(r.sp.gen, streamMid+rung)
	arrivals := r.source(nil, streamPoisson+rung) // only its chunk seeds are used
	l := newLoop(r.dev, true, obs)
	l.reads = make([]time.Duration, 0, n)
	l.writes = make([]time.Duration, 0, n)
	var due time.Duration
	for done := 0; done < n; {
		reqs := gen.next(min(midChunk, n-done))
		workload.ArrivalModel{IOPS: rate}.Stamp(reqs, arrivals.nextSeed())
		for i := range reqs {
			reqs[i].Arrival += due
		}
		due = reqs[len(reqs)-1].Arrival
		done += len(reqs)
		if err := l.run(reqs); err != nil {
			return res, err
		}
	}
	res.makespan, res.reads, res.writes = l.end, l.reads, l.writes
	return res, nil
}
