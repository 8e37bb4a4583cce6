package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
)

// TestProbeFallbackNearestFirst pins the order in which probeFallback
// reads the candidates outside the predicted page's block: nearest first,
// pred+r before pred−r. Where the ±γ window spans at most one block edge
// (2γ+1 ≤ PagesPerBlock, as at bench and golden geometry) the candidates
// all lie on one side of pred and no order can show. Here a block is 4
// pages and γ = 4, so the window around pred = 4b+1 reaches past both
// edges of its block: the candidates are 4b−1 (r = 2), then 4b+4 and
// 4b−2 (r = 3), then 4b+5 and 4b−3 (r = 4). Every probe is one ReadOOB,
// one flash page read, so the read count tells which side went first.
func TestProbeFallbackNearestFirst(t *testing.T) {
	const gamma = 4
	cfg := testConfig()
	cfg.Flash.PagesPerBlock = 4
	cfg.Flash.BlocksPerChan = 64
	cfg.BufferPages = cfg.Flash.PagesPerBlock
	d := newTestDevice(t, cfg, leaftl.New(gamma, cfg.Flash.PageSize))
	n := d.LogicalPages() / 2
	for lpa := 0; lpa < n; lpa += 4 {
		if _, err := d.Write(addr.LPA(lpa), 4); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Find the first block b whose neighbours 4b−2 and 4b+4 hold valid
	// pages, and the LPAs they hold.
	owner := make([]addr.LPA, cfg.Flash.TotalPages())
	for l := 0; l < n; l++ {
		owner[d.truth[l]] = addr.LPA(l)
	}
	pred := addr.PPA(0)
	for p := 2; p+6 < len(owner); p += 4 {
		if d.valid[p] && d.valid[p+6] {
			pred = addr.PPA(p + 3)
			break
		}
	}
	if pred == 0 {
		t.Fatal("no block with valid pages on both sides")
	}
	below, above := owner[pred-3], owner[pred+3]

	for _, c := range []struct {
		name  string
		lpa   addr.LPA
		reads uint64 // ReadOOB calls until the true page
	}{
		{"true page at pred-3", below, 3}, // 4b−1, 4b+4, 4b−2
		{"true page at pred+3", above, 2}, // 4b−1, 4b+4
	} {
		before := d.FlashStats().PageReads
		got, _, sawErr := d.probeFallback(c.lpa, pred, 0)
		if sawErr || got != d.truth[c.lpa] {
			t.Fatalf("%s: probe found PPA %d (error %v), want %d", c.name, got, sawErr, d.truth[c.lpa])
		}
		if reads := d.FlashStats().PageReads - before; reads != c.reads {
			t.Errorf("%s: %d OOB probes, want %d (pred+r before pred−r)", c.name, reads, c.reads)
		}
	}
}
