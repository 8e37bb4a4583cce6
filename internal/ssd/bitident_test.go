package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
)

// churnBitIdentity drives a deterministic autotune workload with enough
// overwrite pressure to trigger GC, so the scenario covers the learned
// read path, the feedback controller, and the relocation path.
func churnBitIdentity(t *testing.T, d *Device) {
	t.Helper()
	logical := d.LogicalPages()
	rng := seededRand(t, 9021)
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 6000; op++ {
		switch {
		case op%5 < 2:
			// Overwrite churn: invalidates pages, forces GC.
			if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case op%5 == 2:
			// Scattered single-page writes (learning-hostile).
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
}

// TestBitmapOffBitIdentity pins the exact device state and counter
// values this scenario produced before the exactness bitmap existed
// (PR 8 HEAD). With the bitmap disabled — the default — the learned
// read path, feedback controller, and GC must reproduce them
// bit-identically: the feature off is the feature absent.
func TestBitmapOffBitIdentity(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize,
		leaftl.WithAutoTune(0.02), leaftl.WithCompactEvery(400)))
	churnBitIdentity(t, d)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	// Goldens captured at PR 8 HEAD (commit 2c54d81), before the bitmap
	// landed. Any drift here means bitmap-off changed device behavior.
	// The digest, the host page counts, the GC counters and the
	// misprediction split do not depend on the learned table's shape and
	// still read as they did then. Four counters do, through the table's
	// size, and were re-captured at PR 18 (whole-group rebuild, the commit
	// after aea29d3): MetaWrites is the periodic whole-table persistence,
	// ⌈table/pageSize⌉ pages a round, and the table is now smaller
	// (10.8 KB against 24.5 KB when the run ends, 62 page writes against
	// 77); the data cache gets the DRAM the table gives back, so two
	// reads that missed now hit, and one of them had been translated by an
	// approximate segment.
	if got := d.StateDigest(); got != 0xf8e894966d11e254 {
		t.Errorf("state digest %#x, want 0xf8e894966d11e254", got)
	}
	type golden struct {
		name string
		got  uint64
		want uint64
	}
	for _, g := range []golden{
		{"HostPagesRead", st.HostPagesRead, 5971},
		{"HostPagesWrite", st.HostPagesWrite, 11136},
		{"GCRuns", st.GCRuns, 17},
		{"GCPagesMoved", st.GCPagesMoved, 1132},
		{"GCErases", st.GCErases, 137},
		{"Mispredictions", st.Mispredictions, 336},
		{"MissHintResolved", st.MissHintResolved, 68},
		{"MissFallbacks", st.MissFallbacks, 268},
		{"ApproxReads", st.ApproxReads, 547},
		{"OOBFallbacks", st.OOBFallbacks, 0},
		{"MetaReads", st.MetaReads, 0},
		{"MetaWrites", st.MetaWrites, 62},
		{"CacheHits", st.CacheHits, 2935},
		{"CacheMisses", st.CacheMisses, 2934},
	} {
		if g.got != g.want {
			t.Errorf("%s = %d, want %d", g.name, g.got, g.want)
		}
	}
}
