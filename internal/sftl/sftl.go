// Package sftl implements the SFTL baseline (Jiang et al., MSST 2011;
// paper §4.1): a page-level mapping that exploits the spatial locality of
// strictly sequential access patterns to condense translation pages.
//
// The LPA space is divided into regions of one translation page's worth
// of entries. A region whose mappings form strictly sequential runs
// (lpa+1 → ppa+1) is stored as one 8-byte head entry per run instead of
// one entry per page. DRAM caches whole compressed regions under a byte
// budget; a miss reads the region's translation page, and dirty region
// evictions write it back.
package sftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// EntryBytes is the size of one mapping or run-head entry.
const EntryBytes = 8

// Region identifies one translation-page-sized range of LPAs.
type Region uint32

// SFTL is the spatial-locality-aware FTL.
type SFTL struct {
	table          map[addr.LPA]addr.PPA
	runs           map[Region]int // compressed size, in run entries
	cache          *ftl.ByteLRU[Region, struct{}]
	entriesPerPage int
}

// New returns an SFTL with the given flash page size (region granularity)
// and region-cache byte budget.
func New(pageSize, budget int) *SFTL {
	epp := pageSize / EntryBytes
	if epp < 1 {
		epp = 1
	}
	return &SFTL{
		table:          make(map[addr.LPA]addr.PPA),
		runs:           make(map[Region]int),
		cache:          ftl.NewByteLRU[Region, struct{}](budget),
		entriesPerPage: epp,
	}
}

// Name implements ftl.Scheme.
func (s *SFTL) Name() string { return "SFTL" }

func (s *SFTL) region(lpa addr.LPA) Region {
	return Region(lpa / addr.LPA(s.entriesPerPage))
}

// regionBytes is the DRAM cost of caching a region: 8 bytes per run.
func (s *SFTL) regionBytes(r Region) int {
	n := s.runs[r]
	if n == 0 {
		n = 1
	}
	return n * EntryBytes
}

// Translate implements ftl.Scheme. Hitting a cached region is free; a
// miss loads the region's (compressed) translation page.
func (s *SFTL) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	var tr ftl.Translation
	tr.Levels = 1
	ppa, ok := s.table[lpa]
	if !ok {
		return tr, false
	}
	tr.PPA = ppa
	r := s.region(lpa)
	if s.cache.Contains(r) {
		s.cache.Get(r) // touch recency
		return tr, true
	}
	tr.Cost.AddRead(uint64(r))
	tr.Cost.Add(s.install(r, false))
	return tr, true
}

func (s *SFTL) install(r Region, dirty bool) ftl.Cost {
	var cost ftl.Cost
	for _, ev := range s.cache.Put(r, struct{}{}, s.regionBytes(r), dirty) {
		if ev.Dirty {
			cost.AddWrite(uint64(ev.Key))
		}
	}
	return cost
}

// Commit implements ftl.Scheme: updates the table, recomputes the run
// count of every touched region, and dirties those regions in the cache.
// pairs are LPA-sorted, so each touched region is one consecutive stretch
// of them and regions are installed in ascending order: the cache's
// recency order, and with it every eviction, depends only on the batch.
func (s *SFTL) Commit(pairs []addr.Mapping) ftl.Cost {
	var cost ftl.Cost
	for i := 0; i < len(pairs); {
		r := s.region(pairs[i].LPA)
		for ; i < len(pairs) && s.region(pairs[i].LPA) == r; i++ {
			s.table[pairs[i].LPA] = pairs[i].PPA
		}
		s.runs[r] = s.countRuns(r)
		cost.Add(s.install(r, true))
	}
	return cost
}

// countRuns scans one region and counts maximal strictly sequential runs
// (the compressed representation's entry count).
func (s *SFTL) countRuns(r Region) int {
	base := addr.LPA(r) * addr.LPA(s.entriesPerPage)
	runs := 0
	prevMapped := false
	var prevPPA addr.PPA
	for i := 0; i < s.entriesPerPage; i++ {
		ppa, ok := s.table[base+addr.LPA(i)]
		switch {
		case !ok:
			prevMapped = false
		case !prevMapped || ppa != prevPPA+1:
			runs++
			prevMapped = true
			prevPPA = ppa
		default:
			prevPPA = ppa
		}
	}
	return runs
}

// SetBudget implements ftl.Scheme.
func (s *SFTL) SetBudget(bytes int) {
	s.cache.Resize(bytes)
}

// MemoryBytes implements ftl.Scheme.
func (s *SFTL) MemoryBytes() int { return s.cache.Used() }

// FullSizeBytes implements ftl.Scheme: the sum of all regions'
// compressed sizes (Figure 15's SFTL bar).
func (s *SFTL) FullSizeBytes() int {
	total := 0
	for _, n := range s.runs {
		total += n * EntryBytes
	}
	return total
}

// Maintain implements ftl.Scheme; SFTL has no periodic work.
func (s *SFTL) Maintain(uint64) ftl.Cost { return ftl.Cost{} }

var _ ftl.Scheme = (*SFTL)(nil)
