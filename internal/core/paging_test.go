package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// newPager returns a pager over tab on pageSize-byte translation pages
// whose journal is configured as device wiring would, with one
// translation block that holds every record a test here appends.
func newPager(tab *Table, pageSize int) *Pager {
	p := NewPager(tab, pageSize)
	p.ConfigureJournal(1<<16, 1<<16)
	return p
}

// buildMixedTable commits a mix of sequential, strided and irregular
// batches so groups carry multiple levels, approximate segments and CRB
// entries — the state a round trip must preserve exactly. Every batch
// goes through a budget-0 pager on pageSize-byte translation pages, as a
// scheme's commits do, so the pager knows every group.
func buildMixedTable(t *testing.T, gamma, pageSize int) (*Table, *Pager) {
	t.Helper()
	tab := NewTable(gamma)
	p := newPager(tab, pageSize)
	commit := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
			p.EnsureWrite(addr.Group(l))
		}
		tab.Update(pairs)
		p.Enforce()
	}
	for g := 0; g < 8; g++ {
		start := addr.LPA(g * 256)
		seq := make([]addr.LPA, 256)
		for i := range seq {
			seq[i] = start + addr.LPA(i)
		}
		commit(seq, addr.PPA(g*1000))
	}
	commit([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commit([]addr.LPA{300, 302, 305, 309}, 51000)
	commit([]addr.LPA{512, 514, 516, 518, 520}, 52000)
	commit([]addr.LPA{11, 12, 13, 14}, 53000)
	return tab, p
}

// lookupAll snapshots every translation of the table's covered space.
func lookupAll(tab *Table, pages int) map[addr.LPA]addr.PPA {
	out := make(map[addr.LPA]addr.PPA)
	for l := 0; l < pages; l++ {
		if ppa, _, ok := tab.Lookup(addr.LPA(l)); ok {
			out[addr.LPA(l)] = ppa
		}
	}
	return out
}

// TestGroupRoundTrip evicts every group through MarshalGroup/DropGroup
// and reinstalls it, asserting translations, statistics and the byte
// count come back bit-identical.
func TestGroupRoundTrip(t *testing.T) {
	tab, _ := buildMixedTable(t, 4, 4096)
	want := lookupAll(tab, 8*256)
	wantStats, wantBytes := tab.Stats(), tab.SizeBytes()

	images := make(map[addr.GroupID][]byte)
	for _, gid := range tab.ResidentGroups() {
		img, err := tab.MarshalGroup(gid)
		if err != nil {
			t.Fatalf("marshal group %d: %v", gid, err)
		}
		images[gid] = img
		foot := tab.GroupFootprint(gid)
		freed, ok := tab.DropGroup(gid)
		if !ok || freed != foot {
			t.Fatalf("drop group %d: freed %d, footprint %d, ok %v", gid, freed, foot, ok)
		}
	}
	if tab.SizeBytes() != 0 || tab.Stats().Groups != 0 {
		t.Fatalf("table not empty after dropping all groups: %+v", tab.Stats())
	}
	for gid, img := range images {
		got, err := tab.InstallGroup(img)
		if err != nil || got != gid {
			t.Fatalf("install group %d: got %d, %v", gid, got, err)
		}
	}
	if got := lookupAll(tab, 8*256); len(got) != len(want) {
		t.Fatalf("round trip lost mappings: %d != %d", len(got), len(want))
	} else {
		for l, ppa := range want {
			if got[l] != ppa {
				t.Fatalf("round trip changed Lookup(%d): %d != %d", l, got[l], ppa)
			}
		}
	}
	if got := tab.Stats(); got != wantStats {
		t.Fatalf("round trip changed stats:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := tab.SizeBytes(); got != wantBytes {
		t.Fatalf("round trip changed SizeBytes: %d, want %d", got, wantBytes)
	}
	// The incremental count must agree with a from-scratch one.
	tab.recomputeBytes()
	if got := tab.SizeBytes(); got != wantBytes {
		t.Fatalf("SizeBytes %d diverges from recomputed %d", wantBytes, got)
	}
}

// TestInstallGroupRejectsResident pins the aliasing guard: installing an
// image over live group state must fail, not silently fork the mapping.
func TestInstallGroupRejectsResident(t *testing.T) {
	tab, _ := buildMixedTable(t, 4, 4096)
	img, err := tab.MarshalGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InstallGroup(img); err == nil {
		t.Fatal("install over a resident group succeeded")
	}
	if _, err := tab.InstallGroup(img[:len(img)-1]); err == nil {
		t.Fatal("truncated group record accepted")
	}
	if _, err := tab.InstallGroup(append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatal("group record with trailing bytes accepted")
	}
}

// TestPagerBudgetAndClock drives a pager over a table and asserts the
// budget holds after every enforcement, faults demand-load evicted
// groups, and recently used groups survive the CLOCK sweep. Its
// translation pages are smaller than any group's record, so every record
// fills a page the journal programs and a fault reads.
func TestPagerBudgetAndClock(t *testing.T) {
	tab, p := buildMixedTable(t, 4, 16)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	p.SetBudget(tab.SizeBytes() / 3)
	if cost := p.Enforce(); len(cost.WriteIDs) == 0 {
		t.Fatal("shrinking below a full table wrote nothing back")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if tab.SizeBytes() > p.Budget() {
		t.Fatalf("resident %d exceeds budget %d", tab.SizeBytes(), p.Budget())
	}
	if p.evicted == 0 || p.TranslationPages() == 0 {
		t.Fatalf("no evictions under a binding budget: %d groups, %d pages",
			p.evicted, p.TranslationPages())
	}

	// Fault an evicted group back in: charged as translation-page reads.
	var gid addr.GroupID
	found := false
	for g := addr.GroupID(0); g < 8; g++ {
		if !tab.HasGroup(g) {
			gid, found = g, true
			break
		}
	}
	if !found {
		t.Fatal("no evicted group to fault")
	}
	cost, known := p.EnsureRead(gid)
	if !known || len(cost.ReadIDs) == 0 {
		t.Fatalf("fault of group %d: known=%v cost=%+v", gid, known, cost)
	}
	if !tab.HasGroup(gid) {
		t.Fatal("fault did not load the group")
	}
	p.Enforce()
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}

	// A hot group (touched every round) stays resident across many
	// enforcement rounds while cold groups rotate: the sweep always finds
	// an unreferenced cold victim before wrapping back to the
	// re-referenced hot group. The ring needs ≥ 3 slots for that
	// guarantee (hot + the just-loaded cold + at least one older cold),
	// so widen the budget to half the table first.
	p.SetBudget(p.FullSizeBytes() / 2)
	for g := addr.GroupID(0); g < 8; g++ {
		p.EnsureRead(g)
	}
	p.Enforce()
	hot := tab.ResidentGroups()[0]
	for i := 0; i < 40; i++ {
		if _, known := p.EnsureRead(hot); !known {
			t.Fatal("hot group vanished")
		}
		var cold addr.GroupID
		for g := addr.GroupID(0); g < 8; g++ {
			if g != hot && !tab.HasGroup(g) {
				cold = g
				break
			}
		}
		p.EnsureRead(cold)
		p.Enforce()
		if !tab.HasGroup(hot) {
			t.Fatalf("round %d: CLOCK evicted the hot group", i)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	// Unknown groups stay unknown (and free).
	if cost, known := p.EnsureRead(9999); known || len(cost.ReadIDs) != 0 || len(cost.WriteIDs) != 0 {
		t.Fatalf("unknown group: known=%v cost=%+v", known, cost)
	}
}

// TestPagedImagesMatchResident pins that the images a partially evicted
// table persists for its paged-out groups, together with its resident
// groups' records, equal the records of the never-evicted table.
func TestPagedImagesMatchResident(t *testing.T) {
	full, _ := buildMixedTable(t, 4, 4096)
	want := groupImages(t, full)

	paged, p := buildMixedTable(t, 4, 4096)
	p.SetBudget(paged.SizeBytes() / 4)
	p.Enforce()
	if p.evicted == 0 {
		t.Fatal("budget did not evict")
	}
	got := p.PersistedGroups()
	for gid, img := range groupImages(t, paged) {
		if _, dup := got[gid]; dup {
			t.Fatalf("group %d is both resident and persisted clean after an eviction pass", gid)
		}
		got[gid] = img
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for gid, img := range want {
		if string(got[gid]) != string(img) {
			t.Fatalf("group %d: paged image differs from the fully resident record", gid)
		}
	}
}

// TestCheckFlagsUnregisteredGroup: a group that reaches the table without
// passing through EnsureWrite fails the audit, even on a budget-0 pager
// that has never registered a group.
func TestCheckFlagsUnregisteredGroup(t *testing.T) {
	tab := NewTable(4)
	p := NewPager(tab, 4096)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	tab.Update(mappings(0, 1, 100, 16))
	err := p.Check()
	if err == nil || !strings.Contains(err.Error(), "has no GMD entry") {
		t.Fatalf("Check = %v, want a missing GMD entry", err)
	}
}

// TestCheckFlagsCleanTouchedGroup: a resident group the table changed
// since its last rebuild must be dirty, or no writeback would persist
// the change; a commit that skips EnsureWrite leaves it clean and fails
// the audit.
func TestCheckFlagsCleanTouchedGroup(t *testing.T) {
	tab, p := buildMixedTable(t, 4, 4096)
	tab.Compact()
	var cost ftl.Cost
	p.FlushDirty(&cost)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	tab.Update(mappings(0, 1, 90000, 16))
	err := p.Check()
	if err == nil || !strings.Contains(err.Error(), "but is clean") {
		t.Fatalf("Check = %v, want a clean group changed since its rebuild", err)
	}
}

// TestFlushDirtyZeroAllocs pins the allocation-lean writeback on a
// resident table: once every group has a record, writing back re-dirtied
// groups whose records fit their storage allocates nothing. Each run
// first flips a byte of every stored record, so the journal sees a
// changed record and appends it instead of skipping it as unchanged.
// The journal's one block holds every record the runs append, so it
// opens no block while allocations are counted.
func TestFlushDirtyZeroAllocs(t *testing.T) {
	// The journal is the only placement; the subtest keeps the name it had
	// when the image path ran beside it.
	t.Run("journal=true", func(t *testing.T) {
		tab, p := buildMixedTable(t, 4, 4096)
		tab.Compact()
		var cost ftl.Cost
		p.FlushDirty(&cost)
		gids := tab.ResidentGroups()
		const runs = 20
		before := p.Stats().DirtyWritebacks
		allocs := testing.AllocsPerRun(runs, func() {
			for _, gid := range gids {
				img := p.gmd[gid].image
				img[len(img)-1] ^= 1
				p.EnsureWrite(gid)
			}
			cost.WriteIDs = cost.WriteIDs[:0]
			p.FlushDirty(&cost)
		})
		if allocs != 0 {
			t.Errorf("a second FlushDirty of %d groups allocated %.1f times", len(gids), allocs)
		}
		if got, want := p.Stats().DirtyWritebacks-before, uint64((runs+1)*len(gids)); got != want {
			t.Errorf("%d writebacks, want %d", got, want)
		}
		if got, want := p.JournalStats().Appends, uint64((runs+2)*len(gids)); got != want {
			t.Errorf("%d journal appends, want %d: a changed record was skipped", got, want)
		}
		if err := p.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOutgrownRecordsShareASlab pins the record slab: when every group's
// record outgrows its storage in one flush, the writeback allocates a
// few slabs rather than one buffer per group, and every record survives
// the moves intact.
func TestOutgrownRecordsShareASlab(t *testing.T) {
	const groups = 64
	tab := NewTable(4)
	p := newPager(tab, 4096)
	commit := func(pairs []addr.Mapping) {
		for _, m := range pairs {
			p.EnsureWrite(addr.Group(m.LPA))
		}
		tab.Update(pairs)
		tab.Compact()
	}
	commit(mappings(0, 1, 0, groups*addr.GroupSize)) // one segment per group
	cost := ftl.Cost{WriteIDs: make([]uint64, 0, 4*groups)}
	p.FlushDirty(&cost)
	small := len(p.gmd[0].image)

	rng := rand.New(rand.NewSource(7))
	var pairs []addr.Mapping
	for g := 0; g < groups; g++ {
		for l := 0; l < addr.GroupSize; l += 1 + rng.Intn(5) {
			pairs = append(pairs, addr.Mapping{LPA: addr.LPA(g*addr.GroupSize + l), PPA: addr.PPA(1<<20 + len(pairs)*3 + rng.Intn(3))})
		}
	}
	commit(pairs)
	cost.WriteIDs = cost.WriteIDs[:0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.FlushDirty(&cost)
	runtime.ReadMemStats(&after)

	if grown := len(p.gmd[0].image); grown < 4*small {
		t.Fatalf("group 0's record grew from %dB to %dB only; nothing outgrew its storage", small, grown)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs >= groups/2 {
		t.Errorf("writing back %d outgrown records allocated %d times", groups, allocs)
	}
	for g := addr.GroupID(0); g < groups; g++ {
		if want, err := tab.MarshalGroup(g); err != nil || !bytes.Equal(p.gmd[g].image, want) {
			t.Fatalf("group %d's record is not its current state after the slab moves (%v)", g, err)
		}
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}
