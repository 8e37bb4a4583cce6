package ssd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
	"leaftl/internal/trace"
)

// mixedTrace generates a seeded mixed workload: write-heavy with a hot
// region (so flushes and GC trigger), reads over previously written
// LPAs, and bursty arrivals.
func mixedTrace(rng *rand.Rand, logical, n int) []trace.Request {
	reqs := make([]trace.Request, 0, n)
	written := make(map[int]bool)
	var arrival time.Duration
	hot := logical / 5
	for i := 0; i < n; i++ {
		arrival += time.Duration(rng.Intn(20)) * time.Microsecond
		lpa := rng.Intn(logical - 8)
		if rng.Intn(100) < 70 {
			lpa = rng.Intn(hot)
		}
		pages := 1 + rng.Intn(8)
		if rng.Intn(100) < 60 || !written[lpa] {
			for j := 0; j < pages; j++ {
				written[lpa+j] = true
			}
			reqs = append(reqs, trace.Request{Op: trace.OpWrite, LPA: addr.LPA(lpa), Pages: pages, Arrival: arrival})
		} else {
			reqs = append(reqs, trace.Request{Op: trace.OpRead, LPA: addr.LPA(lpa), Pages: 1, Arrival: arrival})
		}
	}
	return reqs
}

// counters returns s with its virtual-time durations zeroed: GC work and
// stall times depend on when requests run, which issue times change;
// every remaining field counts state transitions, which they must not.
func counters(s Stats) Stats {
	s.GCTime = 0
	s.GCStall = 0
	s.MetaOverlap = 0
	return s
}

// TestIssuedReplayDeterministic is the determinism guard of issue-time
// replay: one seeded trace replayed closed-loop and through
// trace.ReplayIssued over 1, 2, 4 and 8 host queues must leave
// bit-identical device state (ground truth, PVT/BVC, free-pool order,
// buffer, GC and reliability bookkeeping: StateDigest) and the same
// transition counters, on every die geometry the die sweep benchmarks.
// Issue time moves when flash work runs, never what the device holds:
// state depends only on apply order.
func TestIssuedReplayDeterministic(t *testing.T) {
	for _, dies := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("dies%d", dies), func(t *testing.T) {
			cfg := testConfig()
			cfg.Flash.DiesPerChan = dies
			mk := func() *Device {
				return newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
			}
			closed := mk()
			reqs := mixedTrace(seededRand(t, 71), closed.LogicalPages(), 20000)
			if err := trace.Replay(closed, reqs); err != nil {
				t.Fatal(err)
			}
			if err := closed.CheckInvariants(); err != nil {
				t.Fatalf("closed-loop invariants: %v", err)
			}
			wantDigest := closed.StateDigest()
			wantStats := counters(closed.Stats())
			if wantStats.GCErases == 0 {
				t.Fatal("trace did not exercise GC; determinism coverage too shallow")
			}

			for _, queues := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("queues%d", queues), func(t *testing.T) {
					d := mk()
					res, err := trace.ReplayIssued(d, reqs, trace.OpenLoopConfig{Queues: queues})
					if err != nil {
						t.Fatal(err)
					}
					if res.Requests != len(reqs) {
						t.Errorf("served %d of %d requests", res.Requests, len(reqs))
					}
					if err := d.CheckInvariants(); err != nil {
						t.Fatalf("invariants: %v", err)
					}
					if got := d.StateDigest(); got != wantDigest {
						t.Errorf("state digest %#x != closed loop %#x: queue count changed device state", got, wantDigest)
					}
					if got := counters(d.Stats()); got != wantStats {
						t.Errorf("counters diverged from closed loop:\n got %+v\nwant %+v", got, wantStats)
					}
					if d.Now() != res.Elapsed {
						t.Errorf("device clock %v after replay, makespan %v", d.Now(), res.Elapsed)
					}
				})
			}
		})
	}
}

// TestReplayIssuedSingleQueueMatchesOpenLoop: through one host queue,
// issue-time replay computes the schedule ReplayOpenLoop's simulated
// queue does: the same makespan, latency and queue-wait distributions,
// device clock, state and counters, GC durations included.
func TestReplayIssuedSingleQueueMatchesOpenLoop(t *testing.T) {
	cfg := testConfig()
	mk := func() *Device {
		return newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
	}
	sim, issued := mk(), mk()
	reqs := mixedTrace(seededRand(t, 23), sim.LogicalPages(), 6000)

	want, err := trace.ReplayOpenLoop(sim, reqs, trace.OpenLoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReplayIssued(issued, reqs, trace.OpenLoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("makespan %v, simulated queue %v", got.Elapsed, want.Elapsed)
	}
	if a, b := got.Latency.Summary(), want.Latency.Summary(); a != b {
		t.Errorf("latency %+v, simulated queue %+v", a, b)
	}
	if a, b := got.QueueWait.Summary(), want.QueueWait.Summary(); a != b {
		t.Errorf("queue wait %+v, simulated queue %+v", a, b)
	}
	if issued.Now() != sim.Now() {
		t.Errorf("device clock %v, simulated queue %v", issued.Now(), sim.Now())
	}
	if issued.StateDigest() != sim.StateDigest() {
		t.Errorf("state digest %#x, simulated queue %#x", issued.StateDigest(), sim.StateDigest())
	}
	if a, b := issued.Stats(), sim.Stats(); a != b {
		t.Errorf("stats diverged:\n got %+v\nwant %+v", a, b)
	}
}
