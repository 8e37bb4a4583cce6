// Package dftl implements the DFTL baseline (Gupta et al., ASPLOS 2009;
// paper §4.1): a page-level mapping whose full table lives in flash
// translation pages, with a byte-budgeted Cached Mapping Table (CMT) of
// recently used entries in DRAM.
//
// A translate miss costs one translation-page read. Evicting a dirty CMT
// entry costs one translation-page write; DFTL's batching optimization is
// modeled faithfully — the writeback cleans every cached dirty entry that
// belongs to the same translation page.
package dftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// EntryBytes is the size of one page-level mapping entry: 4-byte LPA +
// 4-byte PPA (paper §2).
const EntryBytes = 8

// DFTL is the demand-based page-level FTL.
type DFTL struct {
	// table is the authoritative mapping, conceptually stored in flash
	// translation pages and indexed by the GMD.
	table map[addr.LPA]addr.PPA
	cmt   *ftl.ByteLRU[addr.LPA, addr.PPA]
	// entriesPerPage is how many mapping entries one translation page
	// holds (flash page size / 8).
	entriesPerPage int
}

// New returns a DFTL with the given flash page size (for translation-page
// granularity) and CMT byte budget.
func New(pageSize, budget int) *DFTL {
	epp := pageSize / EntryBytes
	if epp < 1 {
		epp = 1
	}
	return &DFTL{
		table:          make(map[addr.LPA]addr.PPA),
		cmt:            ftl.NewByteLRU[addr.LPA, addr.PPA](budget),
		entriesPerPage: epp,
	}
}

// Name implements ftl.Scheme.
func (d *DFTL) Name() string { return "DFTL" }

// transPage returns the translation page index holding lpa's entry.
func (d *DFTL) transPage(lpa addr.LPA) addr.LPA {
	return lpa / addr.LPA(d.entriesPerPage)
}

// Translate implements ftl.Scheme. A CMT hit is free; a miss reads the
// translation page from flash and caches the entry, evicting LRU entries
// (a dirty eviction triggers one batched translation-page writeback).
func (d *DFTL) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	var tr ftl.Translation
	tr.Levels = 1
	if ppa, ok := d.cmt.Get(lpa); ok {
		tr.PPA = ppa
		return tr, true
	}
	ppa, ok := d.table[lpa]
	if !ok {
		return tr, false
	}
	tr.Cost.AddRead(uint64(d.transPage(lpa))) // demand-load the translation page
	tr.Cost.Add(d.install(lpa, ppa, false))
	tr.PPA = ppa
	return tr, true
}

// install caches one entry and converts dirty evictions into batched
// translation-page writes. Put's result is borrowed until the CMT's next
// Put or Resize; CleanMatching leaves it intact, so the loop may clean
// while it ranges.
func (d *DFTL) install(lpa addr.LPA, ppa addr.PPA, dirty bool) ftl.Cost {
	var cost ftl.Cost
	for _, ev := range d.cmt.Put(lpa, ppa, EntryBytes, dirty) {
		if !ev.Dirty {
			continue
		}
		// Write back the victim's translation page; every cached dirty
		// entry of that page rides along (DFTL's batching).
		tp := d.transPage(ev.Key)
		cost.AddWrite(uint64(tp))
		d.cmt.CleanMatching(func(k addr.LPA) bool { return d.transPage(k) == tp })
	}
	return cost
}

// Commit implements ftl.Scheme: updates the authoritative table and
// installs the new entries in the CMT as dirty (lazy translation-page
// update — the flash copy is refreshed on eviction).
func (d *DFTL) Commit(pairs []addr.Mapping) ftl.Cost {
	var cost ftl.Cost
	for _, p := range pairs {
		d.table[p.LPA] = p.PPA
		cost.Add(d.install(p.LPA, p.PPA, true))
	}
	return cost
}

// SetBudget implements ftl.Scheme. Evictions the resize forces are not
// charged: the device sets the budget before any traffic, and recovery
// sets it on the rebuilt scheme as part of the scan.
func (d *DFTL) SetBudget(bytes int) { d.cmt.Resize(bytes) }

// MemoryBytes implements ftl.Scheme: DRAM held by the CMT.
func (d *DFTL) MemoryBytes() int { return d.cmt.Used() }

// FullSizeBytes implements ftl.Scheme: the complete page-level table,
// 8 bytes per mapped page. This is the Figure 15 yardstick.
func (d *DFTL) FullSizeBytes() int { return len(d.table) * EntryBytes }

// Maintain implements ftl.Scheme; DFTL has no periodic work.
func (d *DFTL) Maintain(uint64) ftl.Cost { return ftl.Cost{} }

// MappingDigest implements ftl.Scheme: the authoritative page-level
// table's entries.
func (d *DFTL) MappingDigest() uint64 { return ftl.DigestEntries(d.table) }

var _ ftl.Scheme = (*DFTL)(nil)
