package ssd

import (
	"bytes"
	"strings"
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

// churnApprox drives a device into a steady state of approximate
// translations: irregular writes create approximate segments, then a
// read-heavy mixed phase reads through them.
func churnApprox(t *testing.T, d *Device, seed int64, ops int) {
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

// TestBitmapDeviceEndToEnd drives the full preset's read path on a real
// device: it learns at γ = 0, so after churn and after the sparse
// irregular flushes that would lay down approximate segments at γ > 0,
// every read is translated accurately, nothing mispredicts or pays a
// double read, and the audit in CheckInvariants holds throughout.
func TestBitmapDeviceEndToEnd(t *testing.T) {
	cfg := testConfig()
	// Starve the data cache so re-reads exercise translation, not DRAM.
	cfg.DRAMBytes = cfg.BufferBytes() + 64<<10
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...))
	churnApprox(t, d, 7, 4000)
	requireAccurateReads(t, "churn", Stats{}, d.Stats())
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

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
	before := d.Stats()
	for lpa := 0; lpa < span; lpa++ {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	requireAccurateReads(t, "read pass", before, d.Stats())
	if st := d.Scheme().(*leaftl.Scheme).Table().Stats(); st.Approximate != 0 || st.CRBBytes != 0 {
		t.Fatalf("table holds %d approximate segments and %d CRB bytes; want none", st.Approximate, st.CRBBytes)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// requireAccurateReads requires that the reads between two snapshots
// translated pages through the scheme and that none of them was
// approximate, mispredicted or paid a double read.
func requireAccurateReads(t *testing.T, phase string, before, after Stats) {
	t.Helper()
	if after.CacheMisses == before.CacheMisses {
		t.Fatalf("%s: no read was translated; the workload is not exercising the learned path", phase)
	}
	approx, miss := after.ApproxReads-before.ApproxReads, after.Mispredictions-before.Mispredictions
	if dbl := after.DoubleReads - before.DoubleReads; approx != 0 || miss != 0 || dbl != 0 {
		t.Fatalf("%s: %d approximate reads, %d mispredictions, %d double reads; want none",
			phase, approx, miss, dbl)
	}
}

// TestBitmapRelearnUnderGC: block reclaim routes LPA-sorted relocation
// runs through CommitGC, so a full-preset device under GC pressure
// re-fits groups (Stats.Relearns) and relearned groups still translate
// every page correctly.
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
	// read path exercised against relocated pages.
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
// full device: its groups — accurate segments only, since it learns at
// γ = 0 — ride the persisted group images through demand paging and
// crash recovery byte-identically, and once post-recovery reads fault
// every group back in, their answers still match flash ground truth (the
// truth audit in CheckInvariants) and no read is approximate.
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
			churnApprox(t, d, 17, 4000)
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

			// What a crash survivor must reproduce: every persisted
			// image, none holding an approximate segment.
			persisted := d.Scheme().(ftl.GroupPaged).PersistedGroups()
			scratch := core.NewTable(8)
			for gid, img := range persisted {
				if got, err := scratch.InstallGroup(img); err != nil || got != gid {
					t.Fatalf("persisted image of group %d does not decode: %v", gid, err)
				}
			}
			if st := scratch.Stats(); st.Segments == 0 || st.Approximate != 0 {
				t.Fatalf("persisted images hold %d segments, %d approximate; want some, none", st.Segments, st.Approximate)
			}

			rep, err := d.Recover(tc.mk(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if rep.GroupsRestored == 0 {
				t.Fatalf("no groups restored: %+v", rep)
			}
			restored := d.Scheme().(ftl.GroupPaged).PersistedGroups()
			checked := 0
			for gid, img := range persisted {
				got, ok := restored[gid]
				if !ok {
					continue // OOB-rebuilt group: relearned from scratch
				}
				if !bytes.Equal(got, img) {
					t.Fatalf("group %d recovered with image %x, want %x", gid, got, img)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no restored group's image was checked; test is vacuous")
			}
			// Fault the groups back in and let CheckInvariants audit the
			// restored answers against flash ground truth.
			before := d.Stats()
			for lpa := 0; lpa < d.LogicalPages()/2; lpa += 3 {
				if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("post-recovery read %d: %v", lpa, err)
				}
			}
			requireAccurateReads(t, "post-recovery reads", before, d.Stats())
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBitmapAuditCatchesWrongAnswer proves the invariant sweep detects a
// trusted answer gone wrong before any read does: move the ground truth
// of an LPA the scheme answers accurately off its answer, and
// CheckInvariants must fail in the scheme's audit (ftl.ExactAuditor),
// which runs before the device's own page-table checks.
func TestBitmapAuditCatchesWrongAnswer(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...))
	churnApprox(t, d, 7, 2000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sch := d.Scheme().(*leaftl.Scheme)
	for lpa := 0; lpa < d.LogicalPages()/2; lpa++ {
		tr, ok := sch.Translate(addr.LPA(lpa))
		if !ok || tr.Approx {
			continue
		}
		d.truth[addr.LPA(lpa)] = tr.PPA + 1
		err := d.CheckInvariants()
		d.truth[addr.LPA(lpa)] = tr.PPA
		if err == nil || !strings.Contains(err.Error(), "live PPA") {
			t.Fatalf("CheckInvariants = %v on an accurate answer pointing at the wrong page; want the audit's failure", err)
		}
		return
	}
	t.Fatal("no accurate translation found at this seed")
}

var _ ftl.GCRelearner = (*leaftl.Scheme)(nil)

// TestRecoverKeepsReadsExact: after Recover, reads go through the fresh
// scheme, which learns at γ = 0 like the one the crash discarded, so
// before and after the crash every read is translated accurately and
// none mispredicts, even through the sparse irregular flushes that would
// lay down approximate segments at γ > 0.
func TestRecoverKeepsReadsExact(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBytes = cfg.BufferBytes() + 64<<10 // starve the data cache
	mk := func() *leaftl.Scheme { return leaftl.New(8, cfg.Flash.PageSize, bitmapOpts()...) }
	d := newTestDevice(t, cfg, mk())
	churnApprox(t, d, 17, 2000)
	requireAccurateReads(t, "before the crash", Stats{}, d.Stats())
	fresh := mk()
	if _, err := d.Recover(fresh); err != nil {
		t.Fatal(err)
	}
	if d.Scheme() != fresh {
		t.Fatal("the device does not translate through the recovered scheme")
	}
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
	before := d.Stats()
	for lpa := 0; lpa < span; lpa++ {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	requireAccurateReads(t, "after Recover", before, d.Stats())
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// fixedAnswer is a scheme that translates every LPA to one answer.
type fixedAnswer struct {
	ftl.Scheme
	tr ftl.Translation
}

func (f fixedAnswer) Translate(addr.LPA) (ftl.Translation, bool) { return f.tr, true }

// TestRestoredCoversTrustsOnlyExactAnswers: recovery skips relearning a
// pair that a restored image answers within ±γ only when the read path
// will verify that answer (an approximate one); an accurate answer is
// trusted unverified, so it must be the pair's PPA.
func TestRestoredCoversTrustsOnlyExactAnswers(t *testing.T) {
	const ppa, gamma = 100, 4
	for _, c := range []struct {
		tr   ftl.Translation
		want bool
	}{
		{ftl.Translation{PPA: ppa + 2, Approx: true}, true},
		{ftl.Translation{PPA: ppa + gamma + 1, Approx: true}, false},
		{ftl.Translation{PPA: ppa + 2}, false},
		{ftl.Translation{PPA: ppa}, true},
	} {
		if got := restoredCovers(fixedAnswer{tr: c.tr}, 7, ppa, gamma); got != c.want {
			t.Errorf("restored answer %+v for PPA %d: covers = %v, want %v", c.tr, ppa, got, c.want)
		}
	}
}
