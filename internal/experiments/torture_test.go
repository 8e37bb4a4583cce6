package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestTortureMatrix runs the full crash-torture matrix at micro scale:
// {unbudgeted, 25% budget} × {exactness bitmap off, on} × 5 seeded crash
// points — ≥16 of the 20 drawn crashes injected, at least one inside GC,
// each recovered and differentially verified inside the harness.
func TestTortureMatrix(t *testing.T) {
	const seed = 42
	s := NewSuite(MicroScale(), seed)
	cells, table, err := s.Torture(TortureSpec{})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)

	total, bitmapCells, gcCrashes := 0, 0, 0
	points := make(map[string]int)
	for _, c := range cells {
		if c.Bitmap {
			bitmapCells++
		}
		total += c.Crashes
		for p, n := range c.Points {
			points[p] += n
			if strings.HasPrefix(p, "gc.") {
				gcCrashes += n
			}
		}
		if c.Crashes == 0 {
			t.Errorf("seed %d: cell %.2f/%v injected no crashes", seed, c.Budget, c.Bitmap)
		}
		if c.VerifiedLPAs == 0 {
			t.Errorf("seed %d: cell %.2f/%v verified nothing", seed, c.Budget, c.Bitmap)
		}
	}
	if len(cells) != 4 || bitmapCells != 2 {
		t.Fatalf("seed %d: %d cells (%d with the bitmap), want 4 (2)", seed, len(cells), bitmapCells)
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
	const seed = 7
	s := NewSuite(MicroScale(), seed)
	cells, _, err := s.Torture(TortureSpec{
		Budgets: []float64{0},
		Bitmap:  []bool{false},
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if cells[0].Crashes == 0 {
		t.Errorf("seed %d: no crashes injected", seed)
	}
}

// TestTortureJournal crash-tortures the mapping-delta journal path:
// budgeted cells with the journal on and its footprint squeezed to one
// translation block, so slices crash between delta appends, mid-fold and
// mid-journal-GC, and every recovery must replay delta chains onto GMD
// base images before the differential verification. The bitmap-on cell
// is the benchmark's full configuration.
func TestTortureJournal(t *testing.T) {
	const seed = 29
	s := NewSuite(MicroScale(), seed)
	cells, table, err := s.Torture(TortureSpec{
		Budgets:      []float64{0.25},
		Journal:      true,
		JournalPages: 256,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	for _, c := range cells {
		if c.Crashes == 0 {
			t.Errorf("seed %d, bitmap %v: no crashes injected", seed, c.Bitmap)
		}
		if c.VerifiedLPAs == 0 {
			t.Errorf("seed %d, bitmap %v: verified nothing", seed, c.Bitmap)
		}
		if c.JournalReplays == 0 {
			t.Errorf("seed %d, bitmap %v: recoveries never replayed a journal delta", seed, c.Bitmap)
		}
	}
}

// TestFaultSweep checks the aged-device reliability sweep end to end at
// two RBER points: a healthy drive corrects nothing and loses nothing; a
// dying one shows ECC/scrub/retirement activity without ever returning
// an untyped error (the sweep itself fails on any).
func TestFaultSweep(t *testing.T) {
	const seed = 3
	s := NewSuite(MicroScale(), seed)
	// Micro traces advance the clock only ~14s at the default AgeStep;
	// age faster so the retention-scrub threshold actually trips.
	runs, table, err := s.FaultSweep(FaultSweepSpec{RBERs: []float64{1e-7, 1e-4}, AgeStep: 8 * time.Second})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if len(runs) != 2 {
		t.Fatalf("seed %d: %d runs, want 2", seed, len(runs))
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
