package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func microSuite() *Suite { return NewSuite(MicroScale(), 1) }

func parseFactor(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID:     "x",
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  "n",
	}
	s := tb.String()
	if !strings.Contains(s, "== x: T ==") || !strings.Contains(s, "-- n") {
		t.Errorf("ASCII render:\n%s", s)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown render:\n%s", md)
	}
}

func TestFig15ShapeHolds(t *testing.T) {
	s := microSuite()
	tb, err := s.Fig15MemoryReduction()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 7 workloads + geomean
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows[:7] {
		vsDFTL := parseFactor(t, row[4])
		vsSFTL := parseFactor(t, row[5])
		if vsDFTL < 2 {
			t.Errorf("%s: reduction vs DFTL %v < 2x", row[0], vsDFTL)
		}
		if vsSFTL < 1 {
			t.Errorf("%s: LeaFTL bigger than SFTL (%vx)", row[0], vsSFTL)
		}
	}
}

func TestFig16OrderingHolds(t *testing.T) {
	s := microSuite()
	a, b, err := s.Fig16Performance()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []Table{a, b} {
		worse := 0
		for _, row := range tb.Rows[:len(tb.Rows)-1] {
			nL, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			// LeaFTL normalized latency must essentially never exceed
			// DFTL's; tolerate small queueing noise on isolated rows.
			if nL > 1.10 {
				worse++
			}
		}
		if worse > 1 {
			t.Errorf("%s: LeaFTL slower than DFTL on %d workloads", tb.ID, worse)
		}
	}
}

func TestFig19MonotoneForPatternWorkloads(t *testing.T) {
	s := microSuite()
	tb, err := s.Fig19GammaMemory()
	if err != nil {
		t.Fatal(err)
	}
	// Every row is normalized to 1.00 at gamma 0 and should stay within
	// a tight band (gamma can only trade accuracy for size).
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v > 1.25 || v < 0.2 {
				t.Errorf("%s: normalized size %v out of band", row[0], v)
			}
		}
	}
}

func TestFig20AccurateOnlyAtGammaZero(t *testing.T) {
	s := microSuite()
	tb, err := s.Fig20SegmentMix()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][2] != "0" {
		t.Errorf("gamma=0 has approximate segments: %v", tb.Rows[0])
	}
	// Approximate share appears once gamma > 0.
	anyApprox := false
	for _, row := range tb.Rows[1:] {
		if row[2] != "0" {
			anyApprox = true
		}
	}
	if !anyApprox {
		t.Error("no approximate segments at any gamma > 0")
	}
}

func TestFig24ZeroAtGammaZero(t *testing.T) {
	s := microSuite()
	tb, err := s.Fig24Misprediction()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[1] != "0.00%" {
			t.Errorf("%s: mispredictions at gamma=0: %s", row[0], row[1])
		}
	}
}

func TestFig25WAFSane(t *testing.T) {
	s := microSuite()
	tb, err := s.Fig25WAF()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0.3 || v > 5 {
				t.Errorf("%s: WAF %v implausible", row[0], v)
			}
		}
	}
}

func TestStructureFigures(t *testing.T) {
	s := microSuite()
	if tb, err := s.Fig5SegmentLengths(); err != nil || len(tb.Rows) != 3 {
		t.Fatalf("fig5: %v rows=%d", err, len(tb.Rows))
	}
	if tb, err := s.Fig10CRBSizes(); err != nil || len(tb.Rows) != 7 {
		t.Fatalf("fig10: %v", err)
	}
	if tb, err := s.Fig12LevelCounts(); err != nil || len(tb.Rows) != 7 {
		t.Fatalf("fig12: %v", err)
	}
	if a, b, err := s.Fig23LookupOverhead(); err != nil || len(a.Rows) != 7 || len(b.Rows) != 5 {
		t.Fatalf("fig23: %v", err)
	}
}

func TestPerfAndSensitivityFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep is slow")
	}
	s := microSuite()
	if tb, err := s.Fig17RealSSD(); err != nil || len(tb.Rows) != 6 {
		t.Fatalf("fig17: %v", err)
	}
	if tb, err := s.Fig18LatencyCDF(); err != nil || len(tb.Rows) != 6 {
		t.Fatalf("fig18: %v", err)
	}
	if tb, err := s.Fig21GammaPerf(); err != nil || len(tb.Rows) != 12 {
		t.Fatalf("fig21: %v", err)
	}
	if a, b, err := s.Fig22Sensitivity(); err != nil || len(a.Rows) != 3 || len(b.Rows) != 3 {
		t.Fatalf("fig22: %v", err)
	}
}

func TestTable3AndAblations(t *testing.T) {
	s := microSuite()
	tb, err := s.Table3Microbench()
	if err != nil || len(tb.Rows) != 3 {
		t.Fatalf("table3: %v", err)
	}
	if tb, err = s.AblationBufferSort(); err != nil {
		t.Fatalf("ablation-sort: %v", err)
	}
	for _, row := range tb.Rows {
		if parseFactor(t, row[3]) < 1 {
			t.Errorf("%s: unsorted flush shrank the table", row[0])
		}
	}
	if _, err = s.AblationCompaction(); err != nil {
		t.Fatal(err)
	}
	if _, err = s.AblationLogStructured(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryExperiment(t *testing.T) {
	s := microSuite()
	tb, err := s.RecoveryExperiment()
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads × {LeaFTL, LeaFTL@0.5%, DFTL, SFTL}.
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[7] == "0" {
			t.Errorf("%s/%s: differential verification covered nothing", row[0], row[1])
		}
	}
}

func TestRunMemoization(t *testing.T) {
	s := microSuite()
	p := traceWorkloads()[0]
	a, err := s.Run("sim", p, "paper", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("sim", p, "paper", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical run not memoized")
	}
}
