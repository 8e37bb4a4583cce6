package ssd

import (
	"strings"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/leaftl"
)

// TestDifferentialLeaFTLvsDFTL replays one randomized GC-heavy workload
// through a LeaFTL device and a DFTL device and asserts the two stay
// bit-identical: the translation scheme must be invisible to the stored
// data, no matter how GC repacks it. Both devices self-verify every read against ground-truth tokens,
// invariants are audited mid-run, and the final per-LPA payloads are
// compared directly. The workload and token streams are deterministic,
// so any divergence is a translation or relocation bug, not noise. The
// subtest is named for the collector it runs under: greedy victim
// choice with one GC destination stream.
func TestDifferentialLeaFTLvsDFTL(t *testing.T) {
	t.Run("greedy/streams1", differentialLeaFTLvsDFTL)
}

func differentialLeaFTLvsDFTL(t *testing.T) {
	cfg := testConfig()
	devA := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
	devB := newTestDevice(t, cfg, dftl.New(cfg.Flash.PageSize, 1<<20))
	devs := []*Device{devA, devB}

	rng := seededRand(t, 601)
	logical := devA.LogicalPages()
	hot := logical / 5
	written := make(map[int]bool)
	for op := 0; op < 25000; op++ {
		lpa := rng.Intn(logical - 8)
		if rng.Intn(100) < 70 { // skew toward a hot region to force churn
			lpa = rng.Intn(hot)
		}
		n := 1 + rng.Intn(8)
		if rng.Intn(100) < 65 {
			for _, d := range devs {
				if _, err := d.Write(addr.LPA(lpa), n); err != nil {
					t.Fatalf("op %d: %s write: %v", op, d.Scheme().Name(), err)
				}
			}
			for j := 0; j < n; j++ {
				written[lpa+j] = true
			}
		} else if written[lpa] {
			for _, d := range devs {
				if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("op %d: %s read: %v", op, d.Scheme().Name(), err)
				}
			}
		}
		if op%5000 == 4999 {
			for _, d := range devs {
				if err := d.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %s: %v", op, d.Scheme().Name(), err)
				}
			}
		}
	}
	for _, d := range devs {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", d.Scheme().Name(), err)
		}
		if d.Stats().GCErases == 0 {
			t.Fatalf("%s: workload did not exercise GC", d.Scheme().Name())
		}
	}

	// Bit-identical host-visible data: every LPA's payload token
	// must match between the two devices (and the unwritten rest
	// must be empty on both).
	for lpa := 0; lpa < logical; lpa++ {
		if devA.token[lpa] != devB.token[lpa] {
			t.Fatalf("LPA %d: LeaFTL token %#x != DFTL token %#x", lpa, devA.token[lpa], devB.token[lpa])
		}
	}
	// And every written LPA reads back cleanly on both (the
	// devices verify tokens internally on every read).
	for lpa := range written {
		for _, d := range devs {
			if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
				t.Fatalf("final read %d on %s: %v", lpa, d.Scheme().Name(), err)
			}
		}
	}
}

// TestGCRefusesAllValidVictims fills the device so that every allocated
// block is fully valid and asserts GC refuses to reclaim (clean error,
// no livelock): moving an all-valid block frees nothing. The subtest is
// named for the victim policy, greedy.
func TestGCRefusesAllValidVictims(t *testing.T) {
	t.Run("greedy", gcRefusesAllValidVictims)
}

func gcRefusesAllValidVictims(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	// Sequential fill with no rewrites: every flushed block is
	// 100% valid.
	logical := d.LogicalPages()
	for lpa := 0; lpa+8 <= logical; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.victims.pickVictim(); ok {
		t.Fatal("GC picked a victim from an all-valid device")
	}
	err := d.runGC(d.Now(), cfg.Flash.Blocks(), false)
	if err == nil {
		t.Fatal("runGC on an all-valid device must error, not loop")
	}
	if !strings.Contains(err.Error(), "no victim") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGCFreePoolExhaustion overcommits the flash (zero over-provision,
// then churn) and asserts the device fails with a clean error instead
// of panicking or looping when GC cannot find space.
func TestGCFreePoolExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.OverProvision = 0 // logical space == raw space: GC has no slack
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	logical := d.LogicalPages()
	var err error
	for lpa := 0; lpa+8 <= logical && err == nil; lpa += 8 {
		_, err = d.Write(addr.LPA(lpa), 8)
	}
	if err == nil {
		err = d.Flush()
	}
	// Keep churning until the device runs out of blocks; it must surface
	// an error rather than wedge.
	rng := seededRand(t, 9)
	for i := 0; i < 200000 && err == nil; i++ {
		_, err = d.Write(addr.LPA(rng.Intn(logical)), 1)
	}
	if err == nil {
		t.Fatal("overcommitted device never reported exhaustion")
	}
	for _, want := range []string{"out of flash blocks", "no victim", "none are free"} {
		if strings.Contains(err.Error(), want) {
			return
		}
	}
	t.Errorf("unexpected exhaustion error: %v", err)
}

// TestWearLevelingUnderEachPolicy pins that wear leveling triggers
// under greedy GC on a skewed churn (wear moves ride the same reclaim
// path as GC). The subtest is named for the collector: greedy victim
// choice with one GC destination stream.
func TestWearLevelingUnderEachPolicy(t *testing.T) {
	t.Run("greedy/streams1", wearLevelingUnderGreedy)
}

func wearLevelingUnderGreedy(t *testing.T) {
	cfg := testConfig()
	cfg.WearDelta = 2
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	rng := seededRand(t, 11)
	hot := d.LogicalPages() / 8
	for lpa := 0; lpa < d.LogicalPages()/2; lpa++ {
		if _, err := d.Write(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60000; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(hot)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().WearMoves == 0 {
		t.Error("wear leveling never triggered despite skewed erases")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestRandomWritePatternsProperty is the GC property test: a random
// write pattern (its skew, sizes, and rewrite rate drawn from the seed)
// must preserve all invariants and read back every byte, with GC active.
// The subtest is named for the collector: greedy victim choice with one
// GC destination stream.
func TestRandomWritePatternsProperty(t *testing.T) {
	t.Run("greedy/streams1", randomWritePatternsProperty)
}

func randomWritePatternsProperty(t *testing.T) {
	rng := seededRand(t, 61)
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	logical := d.LogicalPages()

	// Random pattern parameters.
	hotFrac := 0.5 + rng.Float64()*0.45
	hotSpace := 1 + rng.Intn(logical/4)
	maxReq := 1 + rng.Intn(12)
	written := make(map[int]bool)
	for op := 0; op < 25000; op++ {
		lpa := rng.Intn(logical - maxReq)
		if rng.Float64() < hotFrac {
			lpa = rng.Intn(hotSpace)
		}
		n := 1 + rng.Intn(maxReq)
		if _, err := d.Write(addr.LPA(lpa), n); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		for j := 0; j < n; j++ {
			written[lpa+j] = true
		}
		if op%8000 == 7999 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCErases == 0 {
		t.Fatal("pattern did not exercise GC")
	}
	for lpa := range written {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
	}
}
