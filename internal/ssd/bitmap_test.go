package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// bitmapOpts is the scheme configuration every bitmap test runs.
func bitmapOpts() []leaftl.Option {
	return []leaftl.Option{
		leaftl.WithCompactEvery(400),
		leaftl.WithExactBitmap(),
	}
}

// churnMispredict drives a device into a mispredicting steady state:
// irregular writes create approximate segments, then a read-heavy mixed
// phase reads through them.
func churnMispredict(t *testing.T, d *Device, seed int64, ops int) {
	t.Helper()
	logical := d.LogicalPages()
	rng := seededRand(t, seed)
	// Fill the first half so reads hit mapped pages.
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.35 {
			// Irregular scattered writes (learning-hostile).
			for i := 0; i < 8; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		base := rng.Intn(logical / 4)
		if _, err := d.Read(addr.LPA(base), 1+rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// requireMissIdentity holds a fault-free run to the read path's
// accounting: every misprediction paid exactly one double read and was
// resolved by the OOB window or the block-edge probe.
func requireMissIdentity(t *testing.T, st Stats) {
	t.Helper()
	if st.DoubleReads != st.Mispredictions || st.MissFallbacks != st.Mispredictions {
		t.Fatalf("double reads %d, mispredictions %d, fallback-resolved misses %d: want all equal",
			st.DoubleReads, st.Mispredictions, st.MissFallbacks)
	}
}

// TestBitmapDeviceEndToEnd drives the exact-bit read path on a real
// device: after churn, approximate reads are served through set bits
// with no verification budget, every misprediction shows up once in the
// double-read and fallback counters, and the bitmap audit in
// CheckInvariants holds throughout.
func TestBitmapDeviceEndToEnd(t *testing.T) {
	cfg := testConfig()
	// Starve the data cache so re-reads exercise translation, not DRAM.
	cfg.DRAMBytes = cfg.BufferBytes() + 64<<10
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...))
	churnMispredict(t, d, 7, 4000)

	st := d.Stats()
	if st.ApproxReads == 0 {
		t.Fatal("no approximate reads; the workload is not exercising the learned path")
	}
	if st.ExactBitHits == 0 {
		t.Fatal("no reads served through exact bits")
	}
	requireMissIdentity(t, st)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A depth-forced rebuild re-fits the verified approximate segments of
	// these scattered-write groups into accurate ones, so churn alone may
	// leave the read span no approximate translation. A few sparse
	// irregular flushes — too small to trip a rebuild — lay down fresh
	// approximate segments for the passes below to read through.
	span := d.LogicalPages() / 4
	for base := 0; base < span; base += 96 {
		for _, o := range []int{0, 1, 3, 4, 7} {
			if _, err := d.Write(addr.LPA(base+o), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// The kill-the-double-read property: a read pass arms exact bits and
	// repairs costly misses, so an identical second pass pays zero double
	// reads — every approximate translation either carries a set bit or
	// was repaired into an accurate point.
	pass := func() (dbl, approx, exact uint64) {
		before := d.Stats()
		for lpa := 0; lpa < span; lpa++ {
			if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
				t.Fatal(err)
			}
		}
		after := d.Stats()
		return after.DoubleReads - before.DoubleReads, after.ApproxReads - before.ApproxReads,
			after.ExactBitHits - before.ExactBitHits
	}
	firstDbl, _, _ := pass()
	secondDbl, secondApprox, secondExact := pass()
	if secondDbl != 0 {
		t.Fatalf("second identical read pass still paid %d double reads (first pass: %d)",
			secondDbl, firstDbl)
	}
	if secondExact == 0 {
		t.Fatal("second read pass served nothing through exact bits")
	}
	if secondExact != secondApprox {
		t.Fatalf("second read pass: %d approximate translations, only %d served through exact bits",
			secondApprox, secondExact)
	}
	requireMissIdentity(t, d.Stats())
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBitmapRelearnUnderGC: block reclaim routes LPA-sorted relocation
// runs through CommitGC, so a bitmap device under GC pressure re-fits
// groups (Stats.Relearns) and relearned groups still translate every
// page correctly.
func TestBitmapRelearnUnderGC(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...))
	logical := d.LogicalPages()
	rng := seededRand(t, 9021)
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite churn drives reclaim; interleaved reads keep the exact
	// bits exercised against relocated pages.
	for op := 0; op < 6000; op++ {
		switch {
		case op%5 < 2:
			if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case op%5 == 2:
			for i := 0; i < 4; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if _, err := d.Read(addr.LPA(rng.Intn(logical/4)), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	st := d.Stats()
	if st.GCRuns == 0 {
		t.Fatal("workload produced no GC; relearning never exercised")
	}
	if st.Relearns == 0 {
		t.Fatal("GC moved pages but relearned no groups")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpa := 0; lpa < logical/2; lpa += 7 {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("read %d after relearning: %v", lpa, err)
		}
	}
}

// TestBitmapSurvivesEvictionAndRecovery pins the wire property on the
// full device: exact bitmaps ride the persisted group
// images through demand paging and crash recovery bit-identically, and
// the restored bits still pass the truth audit after post-recovery
// reads fault every group back in.
func TestBitmapSurvivesEvictionAndRecovery(t *testing.T) {
	cases := []struct {
		name string
		mk   func(cfg Config) ftl.Scheme
	}{
		{"plain", func(cfg Config) ftl.Scheme {
			return leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := budgetedConfig(4037)
			d := newTestDevice(t, cfg, tc.mk(cfg))
			churnMispredict(t, d, 17, 4000)
			// More traffic under the budget so groups cycle through flash.
			rng := seededRand(t, 18)
			for op := 0; op < 1500; op++ {
				if op%3 == 0 {
					if _, err := d.Write(addr.LPA(rng.Intn(d.LogicalPages()/2)), 1); err != nil {
						t.Fatal(err)
					}
				} else if _, err := d.Read(addr.LPA(rng.Intn(d.LogicalPages()/4)), 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}

			// Decode every persisted image into a scratch table and keep
			// its bitmap: what a crash survivor must reproduce.
			old := d.Scheme().(ftl.GroupPaged)
			persisted := old.PersistedGroups()
			if len(persisted) == 0 {
				t.Fatal("nothing persisted before the crash")
			}
			decode := func(gid addr.GroupID, img []byte) [32]byte {
				t.Helper()
				scratch := core.NewTable(8)
				got, err := scratch.InstallGroup(img)
				if err != nil || got != gid {
					t.Fatalf("persisted image of group %d does not decode: %v", gid, err)
				}
				bits, _ := scratch.ExactBits(gid)
				return bits
			}
			want := map[addr.GroupID][32]byte{}
			armed := 0
			for gid, img := range persisted {
				bits := decode(gid, img)
				want[gid] = bits
				if bits != ([32]byte{}) {
					armed++
				}
			}
			if armed == 0 {
				t.Fatal("no persisted group carries a set exact bit; test is vacuous")
			}

			rep, err := d.Recover(tc.mk(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if rep.GroupsRestored == 0 {
				t.Fatalf("no groups restored: %+v", rep)
			}
			fresh := d.Scheme().(ftl.GroupPaged)
			restored := fresh.PersistedGroups()
			checked := 0
			for gid, bits := range want {
				img, ok := restored[gid]
				if !ok {
					continue // OOB-rebuilt group: relearned from scratch
				}
				if got := decode(gid, img); got != bits {
					t.Fatalf("group %d recovered with bitmap %x, want %x", gid, got, bits)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no restored group's bitmap was checked; test is vacuous")
			}
			// Fault the groups back in and let CheckInvariants audit the
			// restored bits against flash ground truth.
			for lpa := 0; lpa < d.LogicalPages()/2; lpa += 3 {
				if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("post-recovery read %d: %v", lpa, err)
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBitmapAuditCatchesStaleBit proves the invariant sweep detects a
// poisoned bitmap: force a set bit whose prediction no longer lands on
// the live page and CheckInvariants must fail.
func TestBitmapAuditCatchesStaleBit(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...))
	churnMispredict(t, d, 7, 2000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Find a mapped LPA translated approximately through a set bit and
	// corrupt the device's ground truth out from under it.
	sch := d.Scheme().(*leaftl.Scheme)
	for lpa := 0; lpa < d.LogicalPages()/2; lpa++ {
		tr, ok := sch.Translate(addr.LPA(lpa))
		if !ok || !tr.Exact {
			continue
		}
		d.truth[addr.LPA(lpa)] = tr.PPA + 1
		if err := d.CheckInvariants(); err == nil {
			t.Fatal("CheckInvariants accepted a set exact bit pointing at the wrong page")
		}
		d.truth[addr.LPA(lpa)] = tr.PPA
		return
	}
	t.Skip("no exact-bit translation found at this seed")
}

var _ ftl.GCRelearner = (*leaftl.Scheme)(nil)

// noteReadCounter is a LeaFTL scheme that counts the read feedback the
// device sends it.
type noteReadCounter struct {
	*leaftl.Scheme
	notes int
}

func (c *noteReadCounter) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) ftl.Cost {
	c.notes++
	return c.Scheme.NoteRead(lpa, predicted, actual, approx, hintResolved)
}

// TestRecoverRewiresReadFeedback: after Recover, OOB-verified reads
// report to the fresh scheme and never to the one the crash discarded.
func TestRecoverRewiresReadFeedback(t *testing.T) {
	cfg := testConfig()
	mk := func() *noteReadCounter {
		return &noteReadCounter{Scheme: leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...)}
	}
	old := mk()
	d := newTestDevice(t, cfg, old)
	churnMispredict(t, d, 17, 2000)
	if old.notes == 0 {
		t.Fatal("no read feedback before the crash; test is vacuous")
	}
	fresh := mk()
	if _, err := d.Recover(fresh); err != nil {
		t.Fatal(err)
	}
	before := old.notes
	rng := seededRand(t, 18)
	for op := 0; op < 2000; op++ {
		if _, err := d.Read(addr.LPA(rng.Intn(d.LogicalPages()/4)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if old.notes != before {
		t.Errorf("the discarded scheme got %d reads of feedback after Recover", old.notes-before)
	}
	if fresh.notes == 0 {
		t.Error("the recovered scheme got no read feedback")
	}
}
