package trace

import (
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/metrics"
)

// Device is the request surface a trace replays onto (implemented by
// *ssd.Device). Read and Write return the request's service latency on
// the device's own virtual clock.
type Device interface {
	Read(lpa addr.LPA, pages int) (time.Duration, error)
	Write(lpa addr.LPA, pages int) (time.Duration, error)
}

// ClockedDevice is a Device whose virtual clock can be advanced through
// idle periods. Open-loop replay uses it to let background work
// (buffered flushes) complete during arrival gaps, as it would on a
// real drive; devices without it are still replayable, their clock just
// never idles. *ssd.Device implements it.
type ClockedDevice interface {
	Device
	// Now returns the device's virtual clock.
	Now() time.Duration
	// AdvanceTo moves the virtual clock forward to t (no-op if the
	// clock is already past t).
	AdvanceTo(t time.Duration)
}

// IssuedDevice is a device that takes each request's issue time
// explicitly, so requests from different host queues can overlap on its
// flash timelines (implemented by *ssd.Device). Times are absolute device
// time; Now and AdvanceTo are ClockedDevice's.
type IssuedDevice interface {
	Now() time.Duration
	AdvanceTo(t time.Duration)
	ReadAt(lpa addr.LPA, pages int, start time.Duration) (time.Duration, error)
	WriteAt(lpa addr.LPA, pages int, start time.Duration) (time.Duration, error)
}

// Replay applies every request in order (closed loop: each request
// starts when the previous one finished; arrival timestamps are
// ignored).
func Replay(d Device, reqs []Request) error {
	for i, r := range reqs {
		if _, err := dispatch(d, r); err != nil {
			return fmt.Errorf("trace: request %d (%s): %w", i, r, err)
		}
	}
	return nil
}

// dispatch issues one request and returns its service latency.
func dispatch(d Device, r Request) (time.Duration, error) {
	switch r.Op {
	case OpRead:
		return d.Read(r.LPA, r.Pages)
	case OpWrite:
		return d.Write(r.LPA, r.Pages)
	default:
		return 0, fmt.Errorf("unknown op %q", r.Op)
	}
}

// dispatchAt issues one request at an explicit device time and returns
// its service latency.
func dispatchAt(d IssuedDevice, r Request, start time.Duration) (time.Duration, error) {
	switch r.Op {
	case OpRead:
		return d.ReadAt(r.LPA, r.Pages, start)
	case OpWrite:
		return d.WriteAt(r.LPA, r.Pages, start)
	default:
		return 0, fmt.Errorf("unknown op %q", r.Op)
	}
}

// OpenLoopConfig parameterizes ReplayOpenLoop and ReplayIssued. The zero
// value replays at recorded speed through one host queue.
type OpenLoopConfig struct {
	// Queues is the number of host submission queues requests are
	// dispatched across (default 1). Each queue serves its requests in
	// order; a request's latency is its queue wait plus device service
	// time, so deeper queue counts absorb arrival bursts the way a
	// multi-queue host interface does.
	Queues int
	// Speedup divides recorded inter-arrival times (2 = replay twice as
	// fast; default 1). The knob §4.1-style replay studies use to push a
	// trace toward device saturation.
	Speedup float64
	// Interarrival, when positive, discards recorded timestamps and
	// spaces arrivals uniformly by this much — how untimed traces are
	// replayed open-loop. Speedup applies to it like it does to
	// recorded arrivals.
	Interarrival time.Duration
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Queues < 1 {
		c.Queues = 1
	}
	if c.Speedup <= 0 {
		c.Speedup = 1
	}
	return c
}

// OpenLoopResult aggregates one open-loop replay.
type OpenLoopResult struct {
	// Requests is the number of requests served; Reads and Writes split
	// it by direction.
	Requests, Reads, Writes int
	// Elapsed is the virtual makespan: the completion time of the last
	// request, measured from the first arrival.
	Elapsed time.Duration
	// Latency is the end-to-end request latency distribution (queue
	// wait + service); ReadLatency and WriteLatency split it by
	// direction, and QueueWait isolates time spent waiting behind
	// earlier requests in the same queue.
	Latency, ReadLatency, WriteLatency, QueueWait *metrics.Histogram
}

// IOPS returns the achieved request throughput over the virtual
// makespan.
func (r *OpenLoopResult) IOPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// arrival returns request i's trace-relative arrival time under c.
func (c OpenLoopConfig) arrival(i int, r Request) time.Duration {
	if c.Interarrival > 0 {
		return time.Duration(float64(i) * float64(c.Interarrival) / c.Speedup)
	}
	return time.Duration(float64(r.Arrival) / c.Speedup)
}

func newOpenLoopResult() *OpenLoopResult {
	return &OpenLoopResult{
		Latency:      metrics.NewHistogram(),
		ReadLatency:  metrics.NewHistogram(),
		WriteLatency: metrics.NewHistogram(),
		QueueWait:    metrics.NewHistogram(),
	}
}

// observe records one served request; times are trace-relative.
func (res *OpenLoopResult) observe(r Request, arrival, start, complete time.Duration) {
	lat := complete - arrival
	res.Requests++
	res.Latency.Observe(lat)
	res.QueueWait.Observe(start - arrival)
	if r.Op == OpRead {
		res.Reads++
		res.ReadLatency.Observe(lat)
	} else {
		res.Writes++
		res.WriteLatency.Observe(lat)
	}
	if complete > res.Elapsed {
		res.Elapsed = complete
	}
}

// ReplayOpenLoop replays a trace open-loop: each request is submitted
// at its recorded arrival time (scaled by cfg.Speedup) regardless of
// whether earlier requests have completed — the load a host generates,
// as opposed to Replay's closed loop where the device sets the pace.
// Requests fan out round-robin across cfg.Queues host queues; within a
// queue, a request waits for its predecessor, so end-to-end latency is
// queue wait plus device service time and tail percentiles surface
// arrival bursts the closed loop hides.
//
// The device itself is the simulator's sequential timing model, so
// service times are measured one request at a time on its virtual
// clock; if the device is a ClockedDevice its clock is advanced through
// arrival gaps so background flash work completes during idle periods.
func ReplayOpenLoop(d Device, reqs []Request, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	res := newOpenLoopResult()
	clocked, _ := d.(ClockedDevice)
	// Replay times are trace-relative; the device's clock may already be
	// far along (warmup traffic), so idle-gap advances are offset from
	// its position at replay start.
	var base time.Duration
	if clocked != nil {
		base = clocked.Now()
	}

	freeAt := make([]time.Duration, cfg.Queues)
	for i, r := range reqs {
		arrival := cfg.arrival(i, r)
		q := i % cfg.Queues
		start := max(arrival, freeAt[q])
		if clocked != nil {
			clocked.AdvanceTo(base + start)
		}
		service, err := dispatch(d, r)
		if err != nil {
			return nil, fmt.Errorf("trace: request %d (%s): %w", i, r, err)
		}
		freeAt[q] = start + service
		res.observe(r, arrival, start, freeAt[q])
	}
	return res, nil
}

// ReplayIssued is ReplayOpenLoop with issue-time queues. Request i joins
// host queue i % cfg.Queues and starts at its arrival or when its queue's
// previous request completed, whichever is later; it is issued at that
// time (ReadAt/WriteAt) rather than at the device clock, so requests from
// different queues overlap on the flash timelines the way independent
// host cores do. Requests still apply in trace order, so the device ends
// in the state a closed-loop Replay of the same trace leaves: queues move
// when flash work runs, never what the device holds. The replay ends by
// advancing the device clock to the last completion.
func ReplayIssued(d IssuedDevice, reqs []Request, cfg OpenLoopConfig) (*OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	res := newOpenLoopResult()
	base := d.Now()
	clock := make([]time.Duration, cfg.Queues)
	for i, r := range reqs {
		arrival := cfg.arrival(i, r)
		q := i % cfg.Queues
		start := max(arrival, clock[q])
		service, err := dispatchAt(d, r, base+start)
		if err != nil {
			return nil, fmt.Errorf("trace: request %d (%s): %w", i, r, err)
		}
		clock[q] = start + service
		res.observe(r, arrival, start, clock[q])
	}
	d.AdvanceTo(base + res.Elapsed)
	return res, nil
}
