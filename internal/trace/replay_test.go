package trace

import (
	"errors"
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
)

// clockedDev is a deterministic ClockedDevice: every request takes
// `service` on a virtual clock that only moves via AdvanceTo and
// request service.
type clockedDev struct {
	now     time.Duration
	service time.Duration
	ops     int
}

func (f *clockedDev) Read(lpa addr.LPA, pages int) (time.Duration, error) {
	f.ops++
	f.now += f.service
	return f.service, nil
}

func (f *clockedDev) Write(lpa addr.LPA, pages int) (time.Duration, error) {
	return f.Read(lpa, pages)
}

func (f *clockedDev) Now() time.Duration { return f.now }

func (f *clockedDev) AdvanceTo(t time.Duration) {
	if t > f.now {
		f.now = t
	}
}

func TestReplayOpenLoopSingleQueue(t *testing.T) {
	d := &clockedDev{service: 10 * time.Microsecond}
	reqs := []Request{
		{Op: OpWrite, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: 5 * time.Microsecond},
		{Op: OpRead, LPA: 2, Pages: 1, Arrival: 100 * time.Microsecond},
	}
	res, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 || res.Reads != 2 || res.Writes != 1 {
		t.Errorf("counts %d/%d/%d", res.Requests, res.Reads, res.Writes)
	}
	// Request 1 arrives at 5µs but queues behind request 0 (busy until
	// 10µs): latency 15µs. Request 2 finds an idle device: 10µs.
	if got := res.Latency.Summary().Peak; got != 15*time.Microsecond {
		t.Errorf("max latency %v, want 15µs", got)
	}
	if res.Elapsed != 110*time.Microsecond {
		t.Errorf("elapsed %v, want 110µs", res.Elapsed)
	}
	if got := res.QueueWait.Summary().Peak; got != 5*time.Microsecond {
		t.Errorf("max queue wait %v, want 5µs", got)
	}
}

func TestReplayOpenLoopTwoQueues(t *testing.T) {
	d := &clockedDev{service: 10 * time.Microsecond}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: 5 * time.Microsecond},
	}
	res, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With its own queue, request 1 starts at its arrival: no queue wait.
	if got := res.QueueWait.Summary().Peak; got != 0 {
		t.Errorf("max queue wait %v, want 0", got)
	}
	if got := res.Latency.Summary().Peak; got != 10*time.Microsecond {
		t.Errorf("max latency %v, want 10µs", got)
	}
}

func TestReplayOpenLoopSpeedup(t *testing.T) {
	d := &clockedDev{service: time.Microsecond}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: 100 * time.Microsecond},
	}
	res, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{Speedup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The second arrival compresses to 50µs; it finds an idle queue.
	if res.Elapsed != 51*time.Microsecond {
		t.Errorf("elapsed %v, want 51µs", res.Elapsed)
	}
}

func TestReplayOpenLoopInterarrival(t *testing.T) {
	d := &clockedDev{service: time.Microsecond}
	reqs := []Request{ // untimed trace
		{Op: OpRead, LPA: 0, Pages: 1},
		{Op: OpRead, LPA: 1, Pages: 1},
		{Op: OpRead, LPA: 2, Pages: 1},
	}
	res, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{Interarrival: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != 41*time.Microsecond {
		t.Errorf("elapsed %v, want 41µs", res.Elapsed)
	}
	if got := res.IOPS(); got < 70_000 || got > 75_000 {
		t.Errorf("IOPS %v, want ~73k", got)
	}
}

func TestReplayOpenLoopAdvancesClock(t *testing.T) {
	d := &clockedDev{service: time.Microsecond}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: time.Second},
	}
	if _, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{}); err != nil {
		t.Fatal(err)
	}
	// The device idled through the 1s arrival gap.
	if d.now != time.Second+time.Microsecond {
		t.Errorf("device clock %v, want 1.000001s", d.now)
	}
}

func TestReplayOpenLoopAdvancesWarmedClock(t *testing.T) {
	// A device warmed before replay sits far along its own clock; the
	// trace-relative idle gap must still advance it (offset from its
	// position at replay start), not be swallowed by the comparison
	// against absolute time.
	d := &clockedDev{service: time.Microsecond, now: time.Hour}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: time.Second},
	}
	if _, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{}); err != nil {
		t.Fatal(err)
	}
	if d.now != time.Hour+time.Second+time.Microsecond {
		t.Errorf("device clock %v, want 1h0m1.000001s", d.now)
	}
}

func TestReplayOpenLoopInterarrivalSpeedup(t *testing.T) {
	d := &clockedDev{service: time.Microsecond}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1},
		{Op: OpRead, LPA: 1, Pages: 1},
	}
	res, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{Interarrival: 20 * time.Microsecond, Speedup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The 20µs spacing compresses to 10µs.
	if res.Elapsed != 11*time.Microsecond {
		t.Errorf("elapsed %v, want 11µs", res.Elapsed)
	}
}

// issuedDev is a deterministic IssuedDevice fake: every request takes
// `service` from its issue time, and the issue times are recorded. Its
// clock moves only through AdvanceTo.
type issuedDev struct {
	clockedDev
	issued []time.Duration
	failAt int // 1-based request that fails; 0 = none
}

func (f *issuedDev) ReadAt(lpa addr.LPA, pages int, start time.Duration) (time.Duration, error) {
	f.issued = append(f.issued, start)
	if len(f.issued) == f.failAt {
		return 0, errSentinel
	}
	return f.service, nil
}

func (f *issuedDev) WriteAt(lpa addr.LPA, pages int, start time.Duration) (time.Duration, error) {
	return f.ReadAt(lpa, pages, start)
}

func TestReplayIssued(t *testing.T) {
	// A warmed device: issue times are offset from its clock at replay start.
	d := &issuedDev{clockedDev: clockedDev{service: 10 * time.Microsecond, now: time.Hour}}
	reqs := []Request{
		{Op: OpWrite, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 2, Pages: 1, Arrival: 5 * time.Microsecond},
		{Op: OpRead, LPA: 3, Pages: 1, Arrival: 5 * time.Microsecond},
	}
	res, err := ReplayIssued(d, reqs, OpenLoopConfig{Queues: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: queue 0 serves requests 0 and 2, queue 1 serves 1 and 3.
	// Both queues start at once; requests 2 and 3 arrive at 5µs and wait
	// for their queue's first request to finish at 10µs.
	us := time.Microsecond
	want := []time.Duration{time.Hour, time.Hour, time.Hour + 10*us, time.Hour + 10*us}
	if len(d.issued) != len(want) {
		t.Fatalf("issued %d requests, want %d", len(d.issued), len(want))
	}
	for i := range want {
		if d.issued[i] != want[i] {
			t.Errorf("request %d issued at %v, want %v", i, d.issued[i], want[i])
		}
	}
	if res.Requests != 4 || res.Reads != 3 || res.Writes != 1 {
		t.Errorf("counts %d/%d/%d, want 4/3/1", res.Requests, res.Reads, res.Writes)
	}
	if got := res.QueueWait.Summary().Peak; got != 5*us {
		t.Errorf("max queue wait %v, want 5µs", got)
	}
	if got := res.Latency.Summary().Peak; got != 15*us {
		t.Errorf("max latency %v, want 15µs", got)
	}
	if res.Elapsed != 20*us {
		t.Errorf("elapsed %v, want 20µs", res.Elapsed)
	}
	if d.now != time.Hour+20*us {
		t.Errorf("device clock %v after replay, want the last completion", d.now)
	}
}

func TestReplayIssuedSpeedup(t *testing.T) {
	d := &issuedDev{clockedDev: clockedDev{service: time.Microsecond}}
	reqs := []Request{
		{Op: OpRead, LPA: 0, Pages: 1, Arrival: 0},
		{Op: OpRead, LPA: 1, Pages: 1, Arrival: 100 * time.Microsecond},
	}
	res, err := ReplayIssued(d, reqs, OpenLoopConfig{Speedup: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival scaling is the simulated path's: the second request is
	// issued at 50µs into an idle queue.
	if d.issued[1] != 50*time.Microsecond {
		t.Errorf("second request issued at %v, want 50µs", d.issued[1])
	}
	if res.Elapsed != 51*time.Microsecond {
		t.Errorf("elapsed %v, want 51µs", res.Elapsed)
	}
}

func TestReplayIssuedErrors(t *testing.T) {
	d := &issuedDev{clockedDev: clockedDev{service: time.Microsecond}, failAt: 2}
	reqs := []Request{{Op: OpWrite, LPA: 0, Pages: 1}, {Op: OpRead, LPA: 0, Pages: 1}}
	_, err := ReplayIssued(d, reqs, OpenLoopConfig{})
	if !errors.Is(err, errSentinel) {
		t.Fatalf("device error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "request 1") {
		t.Errorf("error %q does not name the failing request", err)
	}
}

var errSentinel = errors.New("device failure")

func TestReplayOpenLoopPropagatesError(t *testing.T) {
	d := &fakeDev{failAt: 2}
	reqs := []Request{{Op: OpWrite, LPA: 0, Pages: 1}, {Op: OpRead, LPA: 0, Pages: 1}}
	if _, err := ReplayOpenLoop(d, reqs, OpenLoopConfig{}); err == nil {
		t.Fatal("error swallowed")
	}
}
