package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
)

// TestTortureMatrix runs the full crash-torture matrix at micro scale:
// {unbudgeted, 0.5 % budget} × {paper, full} × 5 seeded crash points —
// ≥16 of the 20 drawn crashes injected, at least one inside GC, each
// recovered and differentially verified inside the harness. Maintenance
// writes dirty groups back at every budget (full, the benchmark's
// configuration, through the journal), so every cell's recoveries must
// restore groups from their persisted records.
func TestTortureMatrix(t *testing.T) {
	const seed = 42
	cells, table, err := NewSuite(MicroScale(), seed).Torture(TortureSpec{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)

	total, fullCells, gcCrashes := 0, 0, 0
	points := make(map[string]int)
	for _, c := range cells {
		if c.Scheme == "full" {
			fullCells++
		}
		if c.MappingsRestored == 0 {
			t.Errorf("seed %d: cell %g/%s: recoveries restored no persisted group", seed, c.Budget, c.Scheme)
		}
		total += c.Crashes
		for p, n := range c.Points {
			points[p] += n
			if strings.HasPrefix(p, "gc.") {
				gcCrashes += n
			}
		}
		if c.Crashes == 0 || c.VerifiedLPAs == 0 {
			t.Errorf("seed %d: cell %g/%s: %d crashes injected, %d LPAs verified; want both > 0", seed, c.Budget, c.Scheme, c.Crashes, c.VerifiedLPAs)
		}
	}
	if len(cells) != 4 || fullCells != 2 {
		t.Fatalf("seed %d: %d cells (%d full), want 4 (2)", seed, len(cells), fullCells)
	}
	if total < 16 {
		t.Errorf("seed %d: %d crashes injected across the matrix, want ≥16", seed, total)
	}
	if len(points) < 3 || gcCrashes == 0 {
		t.Errorf("seed %d: crashes hit %d distinct points (%v), %d inside GC; want ≥3 spread across the flush/GC paths, at least one gc.*",
			seed, len(points), points, gcCrashes)
	}
}

// TestTortureSmoke is the CI-sized single-cell check (also what
// leaftl-bench -torture exercises under the race detector).
func TestTortureSmoke(t *testing.T) {
	tortureOneCell(t, 7, 0, "paper")
}

// TestTortureJournal crash-tortures the metadata journal path on a
// second seed: the budgeted full cell alone, whose recoveries must
// restore groups from their journal records before the differential
// verification.
func TestTortureJournal(t *testing.T) {
	if c := tortureOneCell(t, 29, 0.005, "full"); c.MappingsRestored == 0 {
		t.Errorf("seed 29: recoveries restored no journaled group")
	}
}

// tortureOneCell runs the one-cell matrix budget × scheme and fails t
// unless it injected crashes and verified LPAs.
func tortureOneCell(t *testing.T, seed int64, budget float64, scheme string) TortureCell {
	t.Helper()
	cells, table, err := NewSuite(MicroScale(), seed).Torture(TortureSpec{Budgets: []float64{budget}, Schemes: []string{scheme}})
	if err != nil || len(cells) != 1 {
		t.Fatalf("seed %d: %d cells, err %v; want 1, nil", seed, len(cells), err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if c := cells[0]; c.Crashes == 0 || c.VerifiedLPAs == 0 {
		t.Errorf("seed %d: %d crashes injected, %d LPAs verified; want both > 0", seed, c.Crashes, c.VerifiedLPAs)
	}
	return cells[0]
}

// TestCrashVerifyRejects shows the differential verification fails a
// recovery that resurrects a stale copy or loses an LPA outside the
// write buffer, naming the LPA, and forgives both inside it.
func TestCrashVerifyRejects(t *testing.T) {
	const lpa = 5
	at := crashSnapshot{
		tok:  []uint64{0, 11, 12, 13, 14, 15, 16, 17},
		lost: make([]bool, 8),
	}
	postLost := make([]bool, 8)
	if n, err := at.verify(at.tok, postLost); err != nil || n != 8 {
		t.Fatalf("identical state: verified %d, err %v; want 8, nil", n, err)
	}

	stale := append([]uint64(nil), at.tok...)
	stale[lpa] = 0xdead
	lost := make([]bool, 8)
	lost[lpa] = true
	for _, tc := range []struct {
		name     string
		postTok  []uint64
		postLost []bool
	}{
		{"stale token", stale, postLost},
		{"lost", at.tok, lost},
	} {
		_, err := at.verify(tc.postTok, tc.postLost)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("LPA %d ", lpa)) {
			t.Errorf("%s: err %v, want an error naming LPA %d", tc.name, err, lpa)
		}
		buffered := at
		buffered.buffered = []addr.LPA{lpa}
		if n, err := buffered.verify(tc.postTok, tc.postLost); err != nil || n != 7 {
			t.Errorf("%s, LPA buffered: verified %d, err %v; want 7, nil", tc.name, n, err)
		}
	}
}

// TestFaultSweep checks the aged-device reliability sweep end to end: a
// healthy drive corrects nothing and loses nothing; a dying one shows
// ECC/scrub/retirement activity without ever returning an untyped error
// (the sweep itself fails on any). A third rung close to the dying one
// must keep a row label of its own.
func TestFaultSweep(t *testing.T) {
	const seed = 3
	s := NewSuite(MicroScale(), seed)
	// Micro traces advance the clock only ~14s at the default AgeStep;
	// age faster so the retention-scrub threshold actually trips.
	runs, table, err := s.FaultSweep(FaultSweepSpec{RBERs: []float64{1e-7, 1e-4, 1.5e-4}, AgeStep: 8 * time.Second})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if len(runs) != 3 {
		t.Fatalf("seed %d: %d runs, want 3", seed, len(runs))
	}
	for i, want := range []string{"1e-07", "1e-04", "1.5e-04"} {
		if got := table.Rows[i][0]; got != want {
			t.Errorf("row %d labelled %q, want %q", i, got, want)
		}
	}
	healthy, dying := runs[0], runs[1]
	if healthy.HostUECCs != 0 {
		t.Errorf("seed %d: healthy drive surfaced %d host UECCs", seed, healthy.HostUECCs)
	}
	if dying.Flash.CorrectedReads == 0 {
		t.Errorf("seed %d: dying drive corrected no reads", seed)
	}
	if dying.Flash.ECCRetries == 0 {
		t.Errorf("seed %d: dying drive never entered read-retry", seed)
	}
	if dying.Stats.ScrubRelocations == 0 {
		t.Errorf("seed %d: dying drive never scrubbed", seed)
	}
}
