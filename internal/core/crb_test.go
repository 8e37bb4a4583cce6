package core

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// checkCRBInvariants asserts the paper's three CRB properties (§3.4):
// per-segment contiguity (structural here), entries sorted by unique
// starting LPA, and no LPA stored twice.
func checkCRBInvariants(t *testing.T, c *crb) {
	t.Helper()
	seen := map[uint8]bool{}
	lastStart := -1
	for i := range c.entries {
		e := &c.entries[i]
		if len(e.lpas) == 0 {
			t.Fatal("empty CRB entry")
		}
		if int(e.start()) <= lastStart {
			t.Fatalf("entries not sorted by start: %d after %d", e.start(), lastStart)
		}
		lastStart = int(e.start())
		prev := -1
		for _, o := range e.lpas {
			if int(o) <= prev {
				t.Fatalf("entry %d LPAs not strictly ascending: %v", i, e.lpas)
			}
			prev = int(o)
			if seen[o] {
				t.Fatalf("LPA %d stored twice", o)
			}
			seen[o] = true
		}
	}
}

func TestCRBInsertAndLookup(t *testing.T) {
	var c crb
	c.insert([]uint8{100, 101, 103, 104, 106})
	c.insert([]uint8{120, 125})
	checkCRBInvariants(t, &c)
	for _, o := range []uint8{100, 103, 106} {
		if start, ok := c.lookup(o); !ok || start != 100 {
			t.Errorf("lookup(%d) = %d, %v", o, start, ok)
		}
	}
	if start, ok := c.lookup(125); !ok || start != 120 {
		t.Errorf("lookup(125) = %d, %v", start, ok)
	}
	if _, ok := c.lookup(102); ok {
		t.Error("lookup(102) found a non-member")
	}
}

func TestCRBDedupMovesOwnership(t *testing.T) {
	// Figure 9 (b): inserting a new segment owning 102/105/107/108 must
	// remove those from the older entry; a shared *start* LPA bumps the
	// old entry's start to its adjacent LPA.
	var c crb
	c.insert([]uint8{100, 101, 103, 104, 106})
	edits := c.insert([]uint8{100, 102, 105, 107})
	checkCRBInvariants(t, &c)
	if len(edits) != 1 {
		t.Fatalf("edits = %+v", edits)
	}
	e := edits[0]
	if e.Old != 100 || e.NewStart != 101 || e.Removed {
		t.Errorf("edit = %+v, want old 100 → new start 101", e)
	}
	if start, ok := c.lookup(100); !ok || start != 100 {
		t.Errorf("LPA 100 now owned by %d, %v; want the new segment", start, ok)
	}
	if start, ok := c.lookup(101); !ok || start != 101 {
		t.Errorf("LPA 101 owned by %d, %v; want the bumped old segment", start, ok)
	}
}

func TestCRBDedupRemovesEmptiedEntry(t *testing.T) {
	var c crb
	c.insert([]uint8{10, 12})
	edits := c.insert([]uint8{10, 12, 14})
	if len(edits) != 1 || !edits[0].Removed || edits[0].Old != 10 {
		t.Fatalf("edits = %+v", edits)
	}
	checkCRBInvariants(t, &c)
	if len(c.entries) != 1 {
		t.Fatalf("entries = %d", len(c.entries))
	}
}

func TestCRBInterleavedRanges(t *testing.T) {
	// Entry ranges may interleave even though the sets are disjoint; a
	// dedup that raises one start must keep entries sorted.
	var c crb
	c.insert([]uint8{100, 140})
	c.insert([]uint8{120, 130})
	checkCRBInvariants(t, &c)
	// Removing 100 from the first entry bumps its start past 120.
	edits := c.insert([]uint8{100, 110})
	checkCRBInvariants(t, &c)
	found := false
	for _, e := range edits {
		if e.Old == 100 && e.NewStart == 140 {
			found = true
		}
	}
	if !found {
		t.Errorf("edits = %+v, want 100→140", edits)
	}
	if start, ok := c.lookup(140); !ok || start != 140 {
		t.Errorf("lookup(140) = %d, %v", start, ok)
	}
	if start, ok := c.lookup(130); !ok || start != 120 {
		t.Errorf("lookup(130) = %d, %v", start, ok)
	}
}

// TestCRBRemoveLPAsAndSegment trims an entry, then removes whole ones,
// through removeMarked, the merge path's filter.
func TestCRBRemoveLPAsAndSegment(t *testing.T) {
	var c crb
	var mark [addr.GroupSize]uint64
	c.insert([]uint8{50, 52, 54, 56})
	mark[50], mark[52] = 1, 1
	edit, ok := c.removeMarked(50, &mark, 1)
	if !ok || edit.NewStart != 54 || edit.NewLast != 56 {
		t.Fatalf("edit = %+v, %v", edit, ok)
	}
	checkCRBInvariants(t, &c)
	mark[54], mark[56] = 2, 2
	edit, ok = c.removeMarked(54, &mark, 2)
	if !ok || !edit.Removed {
		t.Fatalf("full removal edit = %+v, %v", edit, ok)
	}
	if c.sizeBytes() != 0 {
		t.Errorf("size = %d after removal", c.sizeBytes())
	}

	c.insert([]uint8{7, 9})
	mark[7], mark[9] = 3, 3
	if edit, ok := c.removeMarked(7, &mark, 3); !ok || !edit.Removed || len(c.entries) != 0 {
		t.Errorf("whole-entry removal = %+v, %v; %d entries left", edit, ok, len(c.entries))
	}
	if _, owned := c.lookup(9); owned {
		t.Error("LPA 9 still owned after its entry went")
	}
	// Removing a missing segment is a no-op.
	if _, ok := c.removeMarked(99, &mark, 3); ok {
		t.Error("removeMarked reported an edit for a missing entry")
	}
}

func TestCRBSizeBytes(t *testing.T) {
	var c crb
	if c.sizeBytes() != 0 {
		t.Fatal("empty CRB has nonzero size")
	}
	c.insert([]uint8{1, 2, 3})
	c.insert([]uint8{10})
	// 4 LPAs + 2 null separators (paper's flat layout accounting).
	if got := c.sizeBytes(); got != 6 {
		t.Errorf("size = %d, want 6", got)
	}
}

// TestCRBRandomizedAgainstModel drives the CRB with random segment
// registrations and checks ownership against a reference map.
func TestCRBRandomizedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var c crb
	owner := map[uint8]uint8{} // lpa offset → owning segment start
	for round := 0; round < 500; round++ {
		// Random ascending offsets.
		n := 1 + rng.Intn(10)
		set := map[uint8]bool{}
		for len(set) < n {
			set[uint8(rng.Intn(256))] = true
		}
		lpas := make([]uint8, 0, n)
		for o := range set {
			lpas = append(lpas, o)
		}
		for i := 1; i < len(lpas); i++ {
			for j := i; j > 0 && lpas[j] < lpas[j-1]; j-- {
				lpas[j], lpas[j-1] = lpas[j-1], lpas[j]
			}
		}
		c.insert(lpas)
		checkCRBInvariants(t, &c)

		// Update the reference model: the new segment owns its LPAs;
		// surviving entries keep theirs, but any old segment whose LPAs
		// were all taken disappears.
		start := lpas[0]
		for _, o := range lpas {
			owner[o] = start
		}
		// Ownership of *other* LPAs may have moved only if their
		// segment's start changed; recompute from the CRB itself is
		// circular, so verify pointwise below instead.
		for o := 0; o < 256; o++ {
			gotStart, gotOK := c.lookup(uint8(o))
			_, wantOK := owner[uint8(o)]
			if gotOK != wantOK {
				t.Fatalf("round %d: lookup(%d) ok=%v, model=%v", round, o, gotOK, wantOK)
			}
			if gotOK {
				// The owning segment must contain o and start ≤ o.
				if gotStart > uint8(o) {
					t.Fatalf("round %d: owner start %d > lpa %d", round, gotStart, o)
				}
				// Model's owner start may have been bumped; accept any
				// entry that really contains o (uniqueness is already
				// checked by the invariants).
			}
		}
	}
}
