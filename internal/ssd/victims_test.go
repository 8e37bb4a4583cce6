package ssd

import (
	"testing"

	"leaftl/internal/flash"
	"leaftl/internal/leaftl"
)

func TestVictimIndexBasics(t *testing.T) {
	const blocks, ppb = 16, 8
	ix := newVictimIndex(blocks, ppb)
	if ix.Len() != 0 || ix.MinValid() != -1 {
		t.Fatalf("fresh index: Len=%d MinValid=%d", ix.Len(), ix.MinValid())
	}

	ix.add(3, 5)
	ix.add(7, 2)
	ix.add(9, 8)
	if ix.Len() != 3 || ix.MinValid() != 2 {
		t.Fatalf("after adds: Len=%d MinValid=%d", ix.Len(), ix.MinValid())
	}
	if !ix.Has(7) || ix.Valid(7) != 2 {
		t.Fatalf("block 7: Has=%v Valid=%d", ix.Has(7), ix.Valid(7))
	}

	// Bucket moves track valid-count changes, including below the cursor.
	ix.update(3, 1)
	if ix.MinValid() != 1 {
		t.Errorf("MinValid after update = %d, want 1", ix.MinValid())
	}
	ix.update(3, 6)
	if ix.MinValid() != 2 {
		t.Errorf("MinValid after move back up = %d, want 2", ix.MinValid())
	}

	// Removal is idempotent and updates the cursor lazily.
	ix.remove(7)
	ix.remove(7)
	if ix.Len() != 2 || ix.MinValid() != 6 {
		t.Errorf("after remove: Len=%d MinValid=%d", ix.Len(), ix.MinValid())
	}
}

func TestVictimIndexRandomizedAgainstReference(t *testing.T) {
	const blocks, ppb = 32, 16
	ix := newVictimIndex(blocks, ppb)
	ref := map[flash.BlockID]int{} // block -> valid count
	rng := seededRand(t, 42)

	for op := 0; op < 20000; op++ {
		b := flash.BlockID(rng.Intn(blocks))
		switch {
		case !ix.Has(b):
			v := rng.Intn(ppb + 1)
			ix.add(b, v)
			ref[b] = v
		case rng.Intn(3) == 0:
			ix.remove(b)
			delete(ref, b)
		default:
			v := rng.Intn(ppb + 1)
			ix.update(b, v)
			ref[b] = v
		}

		if ix.Len() != len(ref) {
			t.Fatalf("op %d: Len=%d, reference %d", op, ix.Len(), len(ref))
		}
		wantMin := -1
		for _, v := range ref {
			if wantMin == -1 || v < wantMin {
				wantMin = v
			}
		}
		if got := ix.MinValid(); got != wantMin {
			t.Fatalf("op %d: MinValid=%d, reference %d", op, got, wantMin)
		}
		stale := 0
		for b, v := range ref {
			if ix.Valid(b) != v {
				t.Fatalf("op %d: Valid(%d)=%d, reference %d", op, b, ix.Valid(b), v)
			}
			stale += ppb - v
		}
		if got := ix.invalidPages(); got != stale {
			t.Fatalf("op %d: invalidPages=%d, reference %d", op, got, stale)
		}
	}
}

func TestGreedyPicksFewestValid(t *testing.T) {
	ix := newVictimIndex(8, 4)
	ix.add(1, 3)
	ix.add(2, 1)
	ix.add(3, 2)
	v, ok := ix.pickVictim()
	if !ok || v != 2 {
		t.Errorf("greedy picked %d (ok=%v), want block 2", v, ok)
	}
}

// TestAllPoliciesRefuseWhenNothingFrees: greedy selection refuses an
// empty index and one whose every candidate is fully valid.
func TestAllPoliciesRefuseWhenNothingFrees(t *testing.T) {
	ix := newVictimIndex(4, 4)
	if _, ok := ix.pickVictim(); ok {
		t.Error("picked a victim from an empty index")
	}
	ix.add(0, 4) // fully valid
	ix.add(1, 4)
	if v, ok := ix.pickVictim(); ok {
		t.Errorf("picked all-valid block %d; must refuse", v)
	}
}

// TestGCStallAttribution checks that a GC-heavy churn books nonzero GC
// time and that flush stalls caused by GC are attributed.
func TestGCStallAttribution(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillAndChurn(t, d, 60000)
	st := d.Stats()
	if st.GCTime == 0 {
		t.Error("GC ran but GCTime is zero")
	}
	if st.GCStall == 0 {
		t.Error("GC ran under sustained churn but no flush stall was attributed to it")
	}
	if st.GCStall > st.GCTime {
		t.Errorf("GCStall %v exceeds total GCTime %v", st.GCStall, st.GCTime)
	}
}
