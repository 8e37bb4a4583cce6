package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// journalBatch returns the i-th of a sequence of batches into group 0
// whose every step leaves a distinct record: even steps rewrite a clean
// sequential run, odd ones a scattered overwrite, so levels and CRB
// sections both churn — the states a write-hot group's writebacks
// persist.
func journalBatch(i int) []addr.Mapping {
	base := addr.PPA(1000 + i*2048)
	pairs := make([]addr.Mapping, 0, 64)
	if i%2 == 0 {
		for l := 0; l < 64; l++ {
			pairs = append(pairs, addr.Mapping{LPA: addr.LPA(l), PPA: base + addr.PPA(l)})
		}
	} else {
		for l := 0; l < 40; l++ {
			pairs = append(pairs, addr.Mapping{LPA: addr.LPA(l * 3), PPA: base + addr.PPA(l)})
		}
	}
	return pairs
}

// newJournalPager returns a table of the full preset (γ = 0,
// presetGamma) behind a pager (newPager) on pageSize-byte translation
// pages.
func newJournalPager(pageSize int) (*Table, *Pager) {
	tab := NewTable(presetGamma(4, true))
	return tab, newPager(tab, pageSize)
}

// commitAndFlush commits pairs through p as a scheme does, then compacts
// and writes the dirty groups back as its maintenance does, returning
// what the writeback charged.
func commitAndFlush(tab *Table, p *Pager, pairs []addr.Mapping) ftl.Cost {
	for _, m := range pairs {
		p.EnsureWrite(addr.Group(m.LPA))
	}
	tab.Update(pairs)
	tab.Compact()
	var cost ftl.Cost
	p.FlushDirty(&cost)
	return cost
}

// TestJournalWritebackFold drives one group through repeated writebacks
// and pins the journal's state machine: each distinct record appends
// once and supersedes the last, a byte-identical rewrite is free, and
// the audit and the pager's one copy of the record hold at every step.
func TestJournalWritebackFold(t *testing.T) {
	const n = 12
	tab, p := newJournalPager(256)
	if cost := commitAndFlush(tab, p, journalBatch(0)); cost.MetaWrites != 0 {
		t.Fatalf("first writeback charged %d page writes before the tail filled", cost.MetaWrites)
	}
	p.EnsureWrite(0)
	var again ftl.Cost
	if p.FlushDirty(&again); again.MetaWrites != 0 || p.JournalStats().Appends != 1 {
		t.Fatal("byte-identical rewrite was not free")
	}
	for i := 1; i < n; i++ {
		commitAndFlush(tab, p, journalBatch(i))
		want, err := tab.MarshalGroup(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.gmd[0].image, want) {
			t.Fatalf("after writeback %d the persisted record diverges", i)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("after writeback %d: %v", i, err)
		}
	}
	if s := p.JournalStats(); s.Appends != n || s.Folds != 0 || s.Groups != 1 {
		t.Errorf("%d appends, %d folds, %d groups; want %d, 0, 1", s.Appends, s.Folds, s.Groups, n)
	}
}

// TestJournalLoadReadsOneRecord writes three groups back many times
// with distinct records, on pages small enough that their histories span
// many of them, evicts them and bounds every demand load by the pages
// its one record can span: ⌈record/pageSize⌉, plus one for a record that
// starts mid-page and straddles a page boundary (ROADMAP item 25 pads
// that away). It runs the record shapes of the paper (γ = 4) and full
// (γ = 0) presets; verifying=true names the full one.
func TestJournalLoadReadsOneRecord(t *testing.T) {
	const pageSize, groups = 16, 3
	for _, full := range []bool{false, true} {
		t.Run(fmt.Sprintf("verifying=%v", full), func(t *testing.T) {
			tab := NewTable(presetGamma(4, full))
			p := newPager(tab, pageSize)
			for i := 0; i < 12; i++ {
				for g := 0; g < groups; g++ {
					pairs := journalBatch(i)
					for k := range pairs {
						pairs[k].LPA += addr.GroupBase(addr.GroupID(g))
						pairs[k].PPA += addr.PPA(g << 10)
					}
					commitAndFlush(tab, p, pairs)
				}
			}
			var want [groups][]byte
			for g := range want {
				rec, err := tab.MarshalGroup(addr.GroupID(g))
				if err != nil {
					t.Fatal(err)
				}
				want[g] = rec
			}
			p.SetBudget(1)
			if cost := p.Enforce(); cost.MetaWrites != 0 || tab.SizeBytes() != 0 {
				t.Fatalf("evicting the clean groups charged %d page writes (%d B resident)", cost.MetaWrites, tab.SizeBytes())
			}
			for g, rec := range want {
				gid := addr.GroupID(g)
				cost, known := p.EnsureRead(gid)
				if !known {
					t.Fatalf("the evicted group %d is unknown", gid)
				}
				if got, err := tab.MarshalGroup(gid); err != nil || !bytes.Equal(got, rec) {
					t.Fatalf("load of group %d does not install its newest record (%v)", gid, err)
				}
				bound := (len(rec)+pageSize-1)/pageSize + 1
				if cost.MetaReads == 0 || cost.MetaReads > bound {
					t.Errorf("load of group %d's %dB record charged %d page reads; want 1..%d", gid, len(rec), cost.MetaReads, bound)
				}
			}
		})
	}
}

// TestJournalGC squeezes the footprint cap so appends must reclaim
// translation blocks: the lowest-live sealed block's live records (a
// cold group's among them) are re-appended at the log head, the block
// is erased, and the audit, the cap (+1 open block) and every group's
// record survive the cycling.
func TestJournalGC(t *testing.T) {
	const nGroups = 4
	tab := NewTable(4)
	p := NewPager(tab, 256)
	p.ConfigureJournal(2, 4) // 512B blocks, GC beyond 4 pages = 2 blocks
	var folds int
	p.SetJournalHook(func(point string) {
		if point == "journal.fold" {
			folds++
		}
	})
	// 36 rounds of three 18-byte records fill 8 pages, twice the cap.
	for round := 0; round < 36; round++ {
		for g := 0; g < nGroups; g++ {
			if g == nGroups-1 && round > 0 {
				continue // a cold group: its one record stays live where it landed
			}
			pairs := make([]addr.Mapping, 32)
			for l := range pairs {
				pairs[l] = addr.Mapping{
					LPA: addr.LPA(g*addr.GroupSize + l*2),
					PPA: addr.PPA(10_000 + round*4096 + g*512 + l),
				}
			}
			commitAndFlush(tab, p, pairs)
			if err := p.Check(); err != nil {
				t.Fatalf("round %d group %d: %v", round, g, err)
			}
		}
	}
	s := p.JournalStats()
	if s.GCRuns == 0 {
		t.Fatal("journal GC never ran under a 2-block cap")
	}
	if folds == 0 || uint64(folds) != s.Folds {
		t.Errorf("journal.fold hook fired %d times for %d re-appended records; want the same, > 0", folds, s.Folds)
	}
	if s.Pages > 4+2 {
		t.Errorf("footprint %d pages exceeds the cap plus one open block", s.Pages)
	}
	for g := addr.GroupID(0); g < nGroups; g++ {
		if want, err := tab.MarshalGroup(g); err != nil || !bytes.Equal(p.gmd[g].image, want) {
			t.Errorf("group %d record diverged across GC (%v)", g, err)
		}
	}
}

// TestJournalCheckCatchesPlacement pins the audit's journal leg: a
// journaled record with no translation block, and a block whose live
// counter disagrees with the records the GMD places there, both fail
// Check.
func TestJournalCheckCatchesPlacement(t *testing.T) {
	for _, c := range []struct {
		name, want string
		corrupt    func(p *Pager)
	}{
		{"no block", "has no translation block", func(p *Pager) { p.gmd[0].block = nil }},
		{"live count", "live counter", func(p *Pager) { p.gmd[0].block.live++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, p := newJournalPager(256)
			commitAndFlush(tab, p, journalBatch(0))
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(p)
			if err := p.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Check = %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestJournalNeedsGeometry: the journal takes only positive geometry,
// and a pager whose journal was never configured refuses to place a
// record rather than log it outside any translation block.
func TestJournalNeedsGeometry(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one naming %q", name, r, want)
			}
		}()
		fn()
	}
	mustPanic("configure(0, 8)", "journal geometry", func() { newJournal(256, nil).configure(0, 8) })
	mustPanic("configure(2, 0)", "journal geometry", func() { newJournal(256, nil).configure(2, 0) })
	tab := NewTable(4)
	p := NewPager(tab, 256)
	mustPanic("a writeback before ConfigureJournal", "before ConfigureJournal", func() { commitAndFlush(tab, p, journalBatch(0)) })
}
