package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// goldenPath holds the rendered output of the golden grid.
var goldenPath = filepath.Join("testdata", "golden.txt")

// TestGoldenState pins every simulated result of a fixed micro-scale grid
// at seed 1: every figure except the host-clock tables fig23b and
// table3, the evaluation cells over all four schemes × budgets {0, 0.005}
// at γ = 0 plus full and paper at γ = 4 (budget 0.005), and the
// crash-torture matrix and fault sweep at two crash points. A change that moves simulated state shows the moved
// lines in testdata/golden.txt's diff; a change that claims same state
// leaves the file as it is. go test -run Golden -update rewrites it.
func TestGoldenState(t *testing.T) {
	got := goldenGrid(t)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("simulated state moved: %s line %d\n got: %s\nwant: %s\n(go test -run Golden -update rewrites the file)",
				goldenPath, i+1, g, w)
		}
	}
}

// goldenGrid runs the grid and renders its tables and JSON.
func goldenGrid(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	s := NewSuite(MicroScale(), 1)
	table := func(tb Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", tb.ID, err)
		}
		if tb.ID != "fig23b" && tb.ID != "table3" {
			out.WriteString(tb.String())
		}
	}
	for _, f := range Figures {
		tables, err := f.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", f.IDs[0], err)
		}
		for _, tb := range tables {
			table(tb, nil)
		}
	}

	jsonOf := func(v any) {
		t.Helper()
		enc, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out.Write(enc)
		out.WriteByte('\n')
	}
	cells, tb, err := s.Cells(CellsSpec{Budgets: []float64{0, 0.005}})
	table(tb, err)
	jsonOf(cells)
	// The bench's γ: the learned schemes mispredict, fall back to OOB
	// windows and triage their fits only at γ > 0.
	cells, tb, err = s.Cells(CellsSpec{Schemes: []string{"full", "paper"}, Workloads: []string{"zipf-hot", "mixed-rw"}, Budgets: []float64{0.005}, Gamma: 4})
	table(tb, err)
	jsonOf(cells)
	torture, tb, err := s.Torture(TortureSpec{CrashPoints: 2})
	table(tb, err)
	jsonOf(torture)
	faults, tb, err := s.FaultSweep(FaultSweepSpec{})
	table(tb, err)
	jsonOf(faults)
	return out.Bytes()
}
