package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/leaftl"
)

func TestGCPolicyByName(t *testing.T) {
	for _, name := range append(GCPolicyNames(), "") {
		p, err := GCPolicyByName(name)
		if err != nil {
			t.Fatalf("GCPolicyByName(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = "greedy"
		}
		if p.Name() != want {
			t.Errorf("GCPolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := GCPolicyByName("lru"); err == nil {
		t.Error("unknown policy name accepted")
	}
}

func TestVictimIndexBasics(t *testing.T) {
	const blocks, ppb = 16, 8
	ix := newVictimIndex(blocks, ppb)
	if ix.Len() != 0 || ix.MinValid() != -1 {
		t.Fatalf("fresh index: Len=%d MinValid=%d", ix.Len(), ix.MinValid())
	}

	ix.add(3, 5, 1, 10)
	ix.add(7, 2, 2, 11)
	ix.add(9, 8, 3, 12)
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

	// Ages advance on the logical clock from the recorded touch.
	if age := ix.Age(3, 30); age != 20 {
		t.Errorf("Age(3, 30) = %d, want 20", age)
	}
	ix.note(3, 28)
	if age := ix.Age(3, 30); age != 2 {
		t.Errorf("Age after note = %d, want 2", age)
	}
}

func TestVictimIndexRandomizedAgainstReference(t *testing.T) {
	const blocks, ppb = 32, 16
	ix := newVictimIndex(blocks, ppb)
	ref := map[flash.BlockID]int{} // block -> valid count
	rng := seededRand(t, 42)
	var seq uint64

	for op := 0; op < 20000; op++ {
		b := flash.BlockID(rng.Intn(blocks))
		switch {
		case !ix.Has(b):
			seq++
			v := rng.Intn(ppb + 1)
			ix.add(b, v, seq, uint64(op))
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
		// The lazily-deleted FIFO queue must stay O(blocks) no matter
		// how many seals/erases churn through (compactFIFO's bound).
		if live := len(ix.fifo) - ix.head; live > 2*blocks+64 {
			t.Fatalf("op %d: FIFO queue grew to %d live slots (blocks=%d); compaction not bounding it", op, live, blocks)
		}
	}
}

func TestGreedyPicksFewestValid(t *testing.T) {
	ix := newVictimIndex(8, 4)
	ix.add(1, 3, 1, 0)
	ix.add(2, 1, 2, 0)
	ix.add(3, 2, 3, 0)
	v, ok := (greedyPolicy{}).PickVictim(ix, 100)
	if !ok || v != 2 {
		t.Errorf("greedy picked %d (ok=%v), want block 2", v, ok)
	}
}

func TestCostBenefitPrefersOldBlocks(t *testing.T) {
	ix := newVictimIndex(8, 8)
	// Same utilization, different ages: the older block must win.
	ix.add(1, 4, 1, 90) // touched recently
	ix.add(2, 4, 2, 10) // cold
	v, ok := (costBenefitPolicy{}).PickVictim(ix, 100)
	if !ok || v != 2 {
		t.Errorf("cost-benefit picked %d (ok=%v), want the colder block 2", v, ok)
	}
	// Age can outweigh a worse utilization: block 2 now holds more
	// valid pages but block 1 was modified moments ago.
	ix.update(2, 5)
	ix.note(1, 99_990)
	v, ok = (costBenefitPolicy{}).PickVictim(ix, 100_000)
	if !ok || v != 2 {
		t.Errorf("cost-benefit picked %d (ok=%v), want aged block 2 despite more valid pages", v, ok)
	}
	// A fully-invalid block beats everything.
	ix.add(3, 0, 3, 99)
	if v, ok = (costBenefitPolicy{}).PickVictim(ix, 100); !ok || v != 3 {
		t.Errorf("cost-benefit picked %d (ok=%v), want free-win block 3", v, ok)
	}
}

func TestFIFOPicksOldestAndSkipsAllValid(t *testing.T) {
	ix := newVictimIndex(8, 4)
	ix.add(5, 4, 1, 0) // oldest, but fully valid
	ix.add(6, 3, 2, 0)
	ix.add(7, 0, 3, 0)
	v, ok := (fifoPolicy{}).PickVictim(ix, 0)
	if !ok || v != 6 {
		t.Errorf("fifo picked %d (ok=%v), want oldest non-full block 6", v, ok)
	}
	// Once block 5 gains an invalid page it becomes the head choice.
	ix.update(5, 3)
	if v, ok = (fifoPolicy{}).PickVictim(ix, 0); !ok || v != 5 {
		t.Errorf("fifo picked %d (ok=%v), want unblocked head 5", v, ok)
	}
	// Stale entries (erase + re-seal) don't resurrect the old order.
	ix.remove(5)
	ix.add(5, 1, 9, 0)
	if v, ok = (fifoPolicy{}).PickVictim(ix, 0); !ok || v != 6 {
		t.Errorf("fifo picked %d (ok=%v), want 6 ahead of re-sealed 5", v, ok)
	}
}

func TestAllPoliciesRefuseWhenNothingFrees(t *testing.T) {
	for _, name := range GCPolicyNames() {
		p, err := GCPolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ix := newVictimIndex(4, 4)
		if _, ok := p.PickVictim(ix, 0); ok {
			t.Errorf("%s picked a victim from an empty index", name)
		}
		ix.add(0, 4, 1, 0) // fully valid
		ix.add(1, 4, 2, 0)
		if v, ok := p.PickVictim(ix, 0); ok {
			t.Errorf("%s picked all-valid block %d; must refuse", name, v)
		}
	}
}

func TestStreamClassification(t *testing.T) {
	cfg := testConfig()
	cfg.GCStreams = 4
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	// Stamp three LPAs at different recencies under a known clock.
	d.writeStamp = uint64(d.logicalPages) * 4
	d.lpaHeat[10] = d.writeStamp - 1                        // just rewritten
	d.lpaHeat[20] = d.writeStamp - uint64(d.logicalPages)/8 // middle-aged
	d.lpaHeat[30] = d.writeStamp - 2*uint64(d.logicalPages) // ancient
	if s := d.streamOf(10); s != 0 {
		t.Errorf("hot LPA classified into stream %d, want 0", s)
	}
	if s := d.streamOf(30); s != cfg.GCStreams-1 {
		t.Errorf("ancient LPA classified into stream %d, want %d", s, cfg.GCStreams-1)
	}
	mid := d.streamOf(20)
	if mid <= 0 || mid >= cfg.GCStreams-1 {
		t.Errorf("middle-aged LPA classified into stream %d, want an interior stream", mid)
	}
	// Monotonicity: older pages never land in a hotter stream.
	prev := 0
	for age := uint64(1); age < 8*uint64(d.logicalPages); age *= 2 {
		d.lpaHeat[40] = d.writeStamp - age
		s := d.streamOf(40)
		if s < prev {
			t.Fatalf("age %d classified into stream %d, hotter than younger age's %d", age, s, prev)
		}
		prev = s
	}
}

// TestPoliciesDiverge drives an identical hot/cold churn through each
// policy and checks the device records materially different reclaim
// behaviour — the whole point of the engine being pluggable.
func TestPoliciesDiverge(t *testing.T) {
	erases := map[string]uint64{}
	for _, name := range GCPolicyNames() {
		cfg := testConfig()
		cfg.GCPolicy = name
		d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
		fillAndChurn(t, d, 40000)
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := d.Stats()
		if st.GCErases == 0 {
			t.Fatalf("%s: GC never ran", name)
		}
		erases[name] = st.GCErases
	}
	if erases["greedy"] == erases["fifo"] && erases["greedy"] == erases["cost-benefit"] {
		t.Errorf("all policies produced identical erase counts %v; engine not plugged through", erases)
	}
}

// TestStreamsSeparateHotCold checks that with streams enabled, a
// skewed churn yields no worse write amplification and that the device
// stays consistent; it also pins that relocated data survives.
func TestStreamsSeparateHotCold(t *testing.T) {
	wafs := map[int]float64{}
	for _, streams := range []int{1, 4} {
		cfg := testConfig()
		cfg.GCStreams = streams
		d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
		fillAndChurn(t, d, 60000)
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("streams=%d: %v", streams, err)
		}
		for lpa := 0; lpa < d.LogicalPages(); lpa += 11 {
			if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
				t.Fatalf("streams=%d: read %d: %v", streams, lpa, err)
			}
		}
		wafs[streams] = d.WAF()
	}
	t.Logf("WAF: 1 stream %.3f, 4 streams %.3f", wafs[1], wafs[4])
	if wafs[4] > wafs[1]*1.05 {
		t.Errorf("4-stream WAF %.3f noticeably worse than single-stream %.3f", wafs[4], wafs[1])
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
