package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// writeTrace stores reqs as a native trace file, timed or not, and
// returns its path.
func writeTrace(t *testing.T, reqs []trace.Request, timed bool) string {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if timed {
		err = trace.Encode(&buf, trace.FormatNative, reqs, trace.Options{})
	} else {
		err = trace.Write(&buf, reqs)
	}
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCellsSchemes(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	runs, table, err := s.Cells(CellsSpec{Queues: []int{4}, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 || len(table.Rows) != 4 {
		t.Fatalf("%d runs, %d rows; want 4 each", len(runs), len(table.Rows))
	}
	for i, want := range []string{"full", "paper", "dftl", "sftl"} {
		r := runs[i]
		if r.Scheme != want {
			t.Errorf("run %d is %s, want %s", i, r.Scheme, want)
		}
		if r.Requests != s.Scale.Requests || r.Result.Latency.Count() != uint64(s.Scale.Requests) {
			t.Errorf("%s served %d requests with %d latencies, want %d",
				r.Scheme, r.Requests, r.Result.Latency.Count(), s.Scale.Requests)
		}
		if r.MapBytes <= 0 || r.KIOPS <= 0 {
			t.Errorf("%s: mapping size %d, %.1f kIOPS", r.Scheme, r.MapBytes, r.KIOPS)
		}
	}
}

func TestCellsUntimedTrace(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	reqs := workload.Catalog()[0].Generate(1<<15, 500, 1) // untimed profile trace
	path := writeTrace(t, reqs, false)
	// At 1/100 speed the 20µs spacing becomes 2 ms, far longer than the
	// device needs per request, so the arrivals set the makespan.
	runs, _, err := s.Cells(CellsSpec{Schemes: []string{"paper"}, Workloads: []string{path},
		Queues: []int{1}, Speedups: []float64{0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runs[0].Result.Elapsed, 499*2*time.Millisecond; got < want {
		t.Errorf("makespan %v, want at least 499 arrivals 2 ms apart (%v)", got, want)
	}
}

func TestOpenLoopFitsOversizedTrace(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	// LPAs far beyond the micro device's capacity (a real MSR trace's
	// offsets) must be folded in, not rejected.
	path := writeTrace(t, []trace.Request{
		{Op: trace.OpWrite, LPA: 113_033_195, Pages: 4, Arrival: 0},
		{Op: trace.OpRead, LPA: 113_033_195, Pages: 4, Arrival: 1000},
	}, true)
	runs, _, err := s.Cells(CellsSpec{Schemes: []string{"dftl"}, Workloads: []string{path}})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Requests != 2 {
		t.Errorf("served %d requests, want 2", runs[0].Requests)
	}
}

func TestCellsRejectBadSpecs(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	one := []string{"paper"}
	for _, tc := range []struct {
		name string
		spec CellsSpec
		want string
	}{
		{"unknown scheme", CellsSpec{Schemes: []string{"LeaFTL"}}, "unknown scheme"},
		{"unknown workload", CellsSpec{Schemes: one, Workloads: []string{"no-such-workload"}}, "neither a timed workload"},
		{"empty trace", CellsSpec{Schemes: one, Workloads: []string{empty}}, "empty trace"},
		{"negative budget", CellsSpec{Schemes: one, Budgets: []float64{-0.1}}, "outside [0, 1]"},
		{"budget above one", CellsSpec{Schemes: one, Budgets: []float64{1.5}}, "outside [0, 1]"},
		// Half the micro page map is 205 KiB; the micro pool is 48 KiB.
		{"budget above the pool", CellsSpec{Schemes: one, Budgets: []float64{0.5}}, "more than the 49152 B mapping+cache pool"},
		{"zero queues", CellsSpec{Schemes: one, Queues: []int{0}}, "queues"},
		{"zero speedup", CellsSpec{Schemes: one, Speedups: []float64{0}}, "speedup"},
		{"negative speedup", CellsSpec{Schemes: one, Speedups: []float64{-2}}, "speedup"},
	} {
		_, _, err := s.Cells(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCoreSweep sweeps the host queue count of the issue-time replay at
// micro scale and checks the properties the determinism
// gate relies on: every queue count serves the whole trace and finishes
// with the same state digest, since queues move when flash work runs,
// never what the device holds.
func TestCoreSweep(t *testing.T) {
	const seed = 5
	s := NewSuite(MicroScale(), seed)
	runs, table, err := s.Cells(CellsSpec{
		Schemes: []string{"paper"}, Queues: []int{1, 2, 4}, Speedups: []float64{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	for _, r := range runs {
		if r.Requests != s.Scale.Requests {
			t.Errorf("q=%d: served %d requests, want %d", r.Queues, r.Requests, s.Scale.Requests)
		}
		if r.KIOPS <= 0 {
			t.Errorf("q=%d: non-positive kIOPS", r.Queues)
		}
		if r.Digest != runs[0].Digest {
			t.Errorf("q=%d: state digest %s diverges from q=1's %s", r.Queues, r.Digest, runs[0].Digest)
		}
	}
}

// TestCoreSweepUnknownWorkload rejects bad workload names instead of
// panicking deep in the generator.
func TestCoreSweepUnknownWorkload(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	if _, _, err := s.Cells(CellsSpec{Workloads: []string{"no-such-workload"}}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestCellsBudgetRepeatable runs `full` with a 0.5 % budget (2 KiB at
// micro scale, under half its learned table): the resident table stays
// within the pool, dirty groups go out through the journal, and a second
// run prints the same row.
func TestCellsBudgetRepeatable(t *testing.T) {
	spec := CellsSpec{Schemes: []string{"full"}, Budgets: []float64{0.005}}
	runs, table, err := NewSuite(MicroScale(), 1).Cells(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := runs[0]
	if r.BudgetBytes <= 0 || r.ResidentBytes > r.BudgetBytes {
		t.Errorf("resident %d B over the %d B budget", r.ResidentBytes, r.BudgetBytes)
	}
	if r.Journal.Appends == 0 {
		t.Error("no journal appends under a 0.5% budget")
	}
	again, table2, err := NewSuite(MicroScale(), 1).Cells(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(table.Rows, table2.Rows) {
		t.Errorf("rows differ between runs:\n%s\n%s", table, table2)
	}
	r.Result, again[0].Result = nil, nil
	if r != again[0] {
		t.Errorf("runs differ:\n%+v\n%+v", r, again[0])
	}
}

// TestCellsFullNeverMispredicts pins what verify-at-learn buys full:
// on the micro cells, with and without the tight budget and at γ 0 and
// 4, every approximate read is served as exact and none mispredicts or
// pays a double read. So the OOB window search and its block-edge probe
// (ssd's readApprox and probeFallback) serve paper alone.
func TestCellsFullNeverMispredicts(t *testing.T) {
	approx := uint64(0)
	for _, gamma := range []int{0, 4} {
		spec := CellsSpec{Schemes: []string{"full"}, Workloads: []string{"zipf-hot", "mixed-rw"},
			Budgets: []float64{0, 0.005}, Gamma: gamma}
		runs, _, err := NewSuite(MicroScale(), 1).Cells(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			d := r.Device
			if d.Mispredictions != 0 || d.DoubleReads != 0 || d.ExactBitHits != d.ApproxReads {
				t.Errorf("γ=%d %s budget %v: %d mispredictions, %d double reads, %d of %d approximate reads exact; want 0, 0, all",
					gamma, r.Workload, r.Budget, d.Mispredictions, d.DoubleReads, d.ExactBitHits, d.ApproxReads)
			}
			approx += d.ApproxReads
		}
	}
	if approx == 0 {
		t.Fatal("no cell read through an approximate segment; test is vacuous")
	}
}

// TestCellsOneBudgetPerRow runs every scheme at one budget: each gets the
// same mapping+cache pool, and none keeps more of its mapping resident
// than that pool.
func TestCellsOneBudgetPerRow(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	runs, _, err := s.Cells(CellsSpec{Budgets: []float64{0.005}})
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.005 * float64(s.simConfig("sim").LogicalPages()*8))
	for _, r := range runs {
		if r.BudgetBytes != want {
			t.Errorf("%s: budget_bytes %d, want %d for every scheme", r.Scheme, r.BudgetBytes, want)
		}
		if r.ResidentBytes > r.BudgetBytes {
			t.Errorf("%s: %d B resident, over the %d B pool", r.Scheme, r.ResidentBytes, r.BudgetBytes)
		}
	}
}

// TestCellMapBytesAfterFlush checks that a cell reads the mapping size
// only after its final flush: flushing the device again must commit
// nothing that changes the size the cell reported.
func TestCellMapBytesAfterFlush(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	reqs, err := s.cellWorkload("mixed-rw")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"full", "paper", "dftl", "sftl"} {
		c := Cell{Scheme: scheme, Workload: "mixed-rw", Queues: 4, Speedup: 1}
		run, dev, err := s.cell(c, reqs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := dev.Scheme().FullSizeBytes(); run.MapBytes != got {
			t.Errorf("%s: cell reported map_bytes %d, FullSizeBytes after Flush is %d", scheme, run.MapBytes, got)
		}
	}
}
