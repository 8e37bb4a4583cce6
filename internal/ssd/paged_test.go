package ssd

import (
	"encoding/binary"
	"strings"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// TestDifferentialBudgetedLeaFTL replays one randomized GC-heavy
// workload through a mapping-budgeted LeaFTL device and an unlimited
// LeaFTL device and asserts the two stay bit-identical in host-visible
// data: demand paging the learned table may cost translation-page
// traffic, but must never change a translation. Invariants (including GMD consistency and the byte
// budget) are audited mid-run, and the budgeted device must actually
// fault and evict groups for the comparison to mean anything. The
// subtest is named for the collector it runs under: greedy victim
// choice with one GC destination stream.
func TestDifferentialBudgetedLeaFTL(t *testing.T) {
	t.Run("greedy/streams1", differentialBudgetedLeaFTL)
}

func differentialBudgetedLeaFTL(t *testing.T) {
	const budget = 48
	cfg := testConfig()
	newScheme := func() *leaftl.Scheme {
		return leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000))
	}
	devA := newTestDevice(t, budgetedConfig(budget), newScheme())
	devB := newTestDevice(t, cfg, newScheme()) // unlimited
	devs := []*Device{devA, devB}

	rng := seededRand(t, 601)
	logical := devA.LogicalPages()

	// Warm phase: map a good chunk of the space so the learned
	// table has substance; A already pages under its budget.
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		for _, d := range devs {
			if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
				t.Fatal(err)
			}
		}
	}

	hot := logical / 5
	written := make(map[int]bool)
	for lpa := 0; lpa < logical/2; lpa++ {
		written[lpa] = true
	}
	for op := 0; op < 18000; op++ {
		lpa := rng.Intn(logical - 8)
		if rng.Intn(100) < 70 {
			lpa = rng.Intn(hot)
		}
		n := 1 + rng.Intn(8)
		if rng.Intn(100) < 60 {
			for _, d := range devs {
				if _, err := d.Write(addr.LPA(lpa), n); err != nil {
					t.Fatalf("op %d: write: %v", op, err)
				}
			}
			for j := 0; j < n; j++ {
				written[lpa+j] = true
			}
		} else if written[lpa] {
			for _, d := range devs {
				if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("op %d: read: %v", op, err)
				}
			}
		}
		if op%4000 == 3999 {
			for _, d := range devs {
				if err := d.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			if m := devA.Scheme().MemoryBytes(); m > budget {
				t.Fatalf("op %d: budgeted mapping %dB exceeds %dB", op, m, budget)
			}
		}
	}
	for _, d := range devs {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if d.Stats().GCErases == 0 {
			t.Fatal("workload did not exercise GC")
		}
	}
	if devA.Stats().MetaReads == 0 {
		t.Fatal("budgeted device never demand-loaded a group")
	}
	if devB.Stats().MetaReads != 0 {
		t.Fatalf("unlimited device charged %d mapping-miss reads", devB.Stats().MetaReads)
	}

	// Bit-identical host-visible data.
	for lpa := 0; lpa < logical; lpa++ {
		if devA.token[lpa] != devB.token[lpa] {
			t.Fatalf("LPA %d: budgeted token %#x != unlimited token %#x",
				lpa, devA.token[lpa], devB.token[lpa])
		}
	}
	for lpa := range written {
		for _, d := range devs {
			if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
				t.Fatalf("final read %d: %v", lpa, err)
			}
		}
	}
}

// TestPagedRecoveryRestoresGMD crashes a budgeted LeaFTL device whose
// maintenance has persisted translation pages and asserts recovery
// revives persisted groups straight from their GMD images — re-learning
// only the groups whose state was dirty at the crash — with every read
// verifying afterwards.
func TestPagedRecoveryRestoresGMD(t *testing.T) {
	cfg := budgetedConfig(48)
	mk := func() *leaftl.Scheme {
		return leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(500))
	}
	d := newTestDevice(t, cfg, mk())
	logical := d.LogicalPages()
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	rng := seededRand(t, 21)
	for op := 0; op < 6000; op++ {
		if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1+rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	gp := d.Scheme().(ftl.GroupPaged)
	if len(gp.PersistedGroups()) == 0 {
		t.Fatal("no persisted groups before the crash; the test needs maintenance ticks")
	}

	rep, err := d.Recover(mk())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupsRestored == 0 || rep.MappingsRestored == 0 {
		t.Fatalf("recovery restored nothing: %+v", rep)
	}
	if rep.TransPagesRestored == 0 {
		t.Fatalf("restored GMD references no translation pages: %+v", rep)
	}
	if rep.MappingsRebuilt+rep.MappingsRestored == 0 {
		t.Fatalf("empty recovery: %+v", rep)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lpa := 0; lpa < logical/2; lpa += 7 {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("post-recovery read %d: %v", lpa, err)
		}
	}
	// The recovered scheme still honors the budget it inherited.
	if m := d.Scheme().MemoryBytes(); d.mapBudget > 0 && m > d.mapBudget {
		t.Fatalf("recovered mapping %dB exceeds budget %dB", m, d.mapBudget)
	}
}

// TestAgedRandWriteMapBounded ages a full-feature LeaFTL device with
// random overwrites — the workload whose learned table used to grow with
// every page written — and holds the whole mapping to the size of an
// 8 B/LPA page map after one and after three logical overwrites: the
// table's size follows what is mapped, not how long the device has run.
// The rebuilt groups then go through a binding mapping budget and the
// delta journal, and must come back from a crash: Recover, the invariant
// audit (shape bound included) and a verified read of every page.
func TestAgedRandWriteMapBounded(t *testing.T) {
	cfg := budgetedConfig(2856)
	mk := func() *leaftl.Scheme {
		return leaftl.New(4, cfg.Flash.PageSize, leaftl.WithJournal(), leaftl.WithExactBitmap(),
			leaftl.WithCompactEvery(2000))
	}
	d := newTestDevice(t, cfg, mk())
	logical := d.LogicalPages()
	for lpa := 0; lpa+8 <= logical; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	mapped := logical / 8 * 8
	rng := seededRand(t, 1801)
	hot := logical / 5
	overwrite := func(pages int) {
		t.Helper()
		for written := 0; written < pages; {
			lpa, n := rng.Intn(logical-8), 1+rng.Intn(4)
			if rng.Intn(2) == 0 {
				lpa = rng.Intn(hot)
			}
			if _, err := d.Write(addr.LPA(lpa), n); err != nil {
				t.Fatal(err)
			}
			written += n
		}
	}
	for _, passes := range []int{1, 2} { // cumulative: 1× and 3×
		overwrite(passes * logical)
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, limit := d.Scheme().FullSizeBytes(), 8*mapped; got > limit {
			t.Fatalf("map is %d B for %d mapped LPAs; an 8 B/LPA page map is %d B", got, mapped, limit)
		}
	}
	if d.Stats().GCRuns == 0 {
		t.Fatal("aging never ran GC")
	}

	overwrite(logical)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if js := d.Scheme().(ftl.Journaled).JournalStats(); js.Appends == 0 {
		t.Fatal("no journal deltas before the crash; the budget never bound")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Recover(mk())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupsRestored == 0 {
		t.Fatalf("recovery restored no journaled groups: %+v", rep)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	for lpa := 0; lpa < mapped; lpa++ {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("post-recovery read of LPA %d: %v", lpa, err)
		}
	}
}

// budgetProbe records every budget the device hands its scheme.
type budgetProbe struct {
	ftl.Scheme
	budgets []int
}

func (b *budgetProbe) SetBudget(bytes int) {
	b.budgets = append(b.budgets, bytes)
	b.Scheme.SetBudget(bytes)
}

// TestNewHandsSchemePositiveBudget pins that New always gives the scheme
// a positive mapping budget, even at the smallest DRAM Validate accepts
// (one byte beyond the write buffer), under both mapping modes: the
// learned table's pager is always bounded on a device.
func TestNewHandsSchemePositiveBudget(t *testing.T) {
	for _, mode := range []MappingMode{MappingFirst, MappingCapped} {
		cfg := testConfig()
		cfg.Mode = mode
		cfg.DRAMBytes = cfg.BufferBytes()
		if cfg.Validate() == nil {
			t.Fatalf("%v: DRAM equal to the write buffer validated", mode)
		}
		cfg.DRAMBytes++
		probe := &budgetProbe{Scheme: leaftl.New(4, cfg.Flash.PageSize)}
		d := newTestDevice(t, cfg, probe)
		if len(probe.budgets) != 1 || probe.budgets[0] < 1 || probe.budgets[0] != d.mapBudget {
			t.Fatalf("%v: scheme got budgets %v, device budget %d", mode, probe.budgets, d.mapBudget)
		}
	}
}

// corruptImages is a LeaFTL scheme whose persisted translation-page
// images have their first segment stretched past the end of its group.
type corruptImages struct{ *leaftl.Scheme }

func (c corruptImages) PersistedGroups() map[addr.GroupID][]byte {
	out := c.Scheme.PersistedGroups()
	for gid, img := range out {
		// The group id, the 32-byte exact bitmap, the level count and the
		// first level's segment count; then that level's first segment,
		// whose first two bytes are its start offset and span.
		if binary.LittleEndian.Uint16(img[36:]) > 0 && binary.LittleEndian.Uint16(img[38:]) > 0 {
			img = append([]byte(nil), img...)
			img[40], img[41] = 250, 20
			out[gid] = img
		}
	}
	return out
}

// TestRecoverRejectsCorruptGroupImage: recovery checks every persisted
// group image it restores, with and without the journal, so an image
// whose segment runs past its group fails Recover with an error instead
// of a panic once a later commit rebuilds the group.
func TestRecoverRejectsCorruptGroupImage(t *testing.T) {
	for _, journal := range []bool{false, true} {
		cfg := budgetedConfig(48)
		mk := func() *leaftl.Scheme {
			opts := []leaftl.Option{leaftl.WithCompactEvery(500)}
			if journal {
				opts = append(opts, leaftl.WithJournal())
			}
			return leaftl.New(4, cfg.Flash.PageSize, opts...)
		}
		d := newTestDevice(t, cfg, corruptImages{mk()})
		logical := d.LogicalPages()
		for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
			if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
				t.Fatal(err)
			}
		}
		rng := seededRand(t, 21)
		for op := 0; op < 3000; op++ {
			if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(d.Scheme().(ftl.GroupPaged).PersistedGroups()) == 0 {
			t.Fatalf("journal=%v: no persisted groups before the crash", journal)
		}
		if _, err := d.Recover(mk()); err == nil || !strings.Contains(err.Error(), "runs past its group") {
			t.Errorf("journal=%v: Recover returned %v, want the corrupt image rejected", journal, err)
		}
	}
}
