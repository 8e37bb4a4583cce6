package experiments

import (
	"strings"
	"testing"

	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

func TestOpenLoopCompare(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	gen := workload.TimedCatalog()["zipf-hot"]
	reqs := gen.Generate(1<<16, 2_000, 1)

	runs, table, err := s.OpenLoopCompare(reqs, OpenLoopSpec{Queues: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || len(table.Rows) != 3 {
		t.Fatalf("%d runs, %d rows; want 3 each", len(runs), len(table.Rows))
	}
	for _, r := range runs {
		if r.Result.Requests != len(reqs) {
			t.Errorf("%s served %d requests, want %d", r.Scheme, r.Result.Requests, len(reqs))
		}
		if r.Result.Latency.Count() != uint64(len(reqs)) {
			t.Errorf("%s recorded %d latencies", r.Scheme, r.Result.Latency.Count())
		}
		if r.MapBytes <= 0 {
			t.Errorf("%s mapping size %d", r.Scheme, r.MapBytes)
		}
	}
	if !strings.Contains(runs[0].Scheme, "LeaFTL") {
		t.Errorf("first run is %s, want LeaFTL", runs[0].Scheme)
	}
}

func TestOpenLoopCompareUntimedTrace(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	reqs := workload.Catalog()[0].Generate(1<<15, 500, 1) // untimed profile trace
	spec := OpenLoopSpec{Queues: 1, Interarrival: 20_000} // 20µs spacing
	runs, _, err := s.OpenLoopCompare(reqs, spec)
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Result.Elapsed <= 0 {
		t.Error("zero makespan")
	}
}

func TestOpenLoopCompareEmptyTrace(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	if _, _, err := s.OpenLoopCompare(nil, OpenLoopSpec{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestOpenLoopFitsOversizedTrace(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	// LPAs far beyond the micro device's capacity (a real MSR trace's
	// offsets) must be folded in, not rejected.
	reqs := []trace.Request{
		{Op: trace.OpWrite, LPA: 113_033_195, Pages: 4, Arrival: 0},
		{Op: trace.OpRead, LPA: 113_033_195, Pages: 4, Arrival: 1000},
	}
	runs, _, err := s.OpenLoopCompare(reqs, OpenLoopSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Result.Requests != 2 {
		t.Errorf("served %d requests, want 2", runs[0].Result.Requests)
	}
}
