package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// Demand paging of the learned mapping table (paper §3.8): segment groups
// not backed by DRAM live as serialized records in flash translation
// pages, tracked by a Global Mapping Directory (GMD). The Pager is the
// machinery behind a scheme's SetBudget: it decides which groups stay
// resident (a CLOCK second-chance policy — a one-bit LRU — over the
// resident set), demand-loads evicted groups on access, and reports every
// transfer as an ftl.Cost — counts of translation-page flash operations,
// each named by a virtual translation PPA — so the SSD can charge them on
// the flash timelines of the dies holding those pages. The pager is the
// one home of the GMD: every group is registered at its first commit, and
// a budget ≤ 0 simply never evicts.
//
// A Pager is not safe for concurrent use; the device serializes every
// call into the scheme that owns it.

// pageIDs expands a group image's virtual translation PPA into one
// identity per constituent flash page.
func pageIDs(ppa uint32, n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(ppa)<<8 | uint64(i&0xff)
	}
	return ids
}

// PagerStats counts paging events since the pager was created.
type PagerStats struct {
	// Faults counts demand loads of evicted groups.
	Faults uint64
	// Evictions counts groups dropped from DRAM.
	Evictions uint64
	// DirtyWritebacks counts translation-page image rewrites (dirty
	// evictions plus periodic persistence).
	DirtyWritebacks uint64
}

// gmdEntry is one Global Mapping Directory slot: where a group's
// translation-page image lives, whether a DRAM copy exists, and whether
// that copy has diverged from the image.
type gmdEntry struct {
	ppa       uint32 // virtual translation-page address of the current image
	image     []byte // serialized group record (nil: never persisted)
	dramBytes int    // decoded footprint at last eviction (FullSizeBytes accounting)
	resident  bool
	dirty     bool // DRAM copy differs from image
	ref       bool // CLOCK reference bit
}

// Pager demand-pages a table's segment groups against a byte budget.
type Pager struct {
	store    *Table
	pageSize int
	budget   int // ≤ 0: unlimited (loads still happen for evicted groups)

	gmd  map[addr.GroupID]*gmdEntry
	ring []addr.GroupID // CLOCK ring over resident groups, insertion order
	hand int

	evicted      int // non-resident GMD entries
	evictedBytes int // Σ dramBytes over non-resident entries
	flashPages   int // Σ image pages over entries holding an image
	nextPPA      uint32
	fast         bool // cached FastPath value, refreshed on mutation
	stats        PagerStats

	// journal, when non-nil, replaces the image-per-page writeback path
	// with the metadata log (journal.go): dirty evictions append the
	// group's record into shared translation pages, demand loads read
	// that one record, and gmdEntry.image stays nil — the journal owns
	// the durable bytes. Nil keeps the image path bit-identical to its
	// pre-journal behavior.
	journal *journal
}

// EnableJournal switches metadata persistence to the metadata journal.
// Call before any paging activity; enabling an already-active pager
// would orphan existing images.
func (p *Pager) EnableJournal() {
	if p.journal == nil {
		p.journal = newJournal(p.pageSize)
	}
}

// JournalEnabled reports whether the metadata journal is on.
func (p *Pager) JournalEnabled() bool { return p.journal != nil }

// ConfigureJournal sets the journal's translation-block geometry and
// footprint cap (device wiring calls this once flash geometry and the
// metadata share of over-provisioning are known). No-op when the
// journal is off.
func (p *Pager) ConfigureJournal(pagesPerBlock, maxPages int) {
	if p.journal != nil {
		p.journal.configure(pagesPerBlock, maxPages)
	}
}

// JournalStats snapshots the journal counters (zero when disabled).
func (p *Pager) JournalStats() ftl.JournalStats {
	if p.journal == nil {
		return ftl.JournalStats{}
	}
	return p.journal.Stats()
}

// SetJournalHook installs the crash-injection hook fired before journal
// GC ("journal.gc") and before each live record it re-appends
// ("journal.fold").
func (p *Pager) SetJournalHook(fn func(string)) {
	if p.journal != nil {
		p.journal.hook = fn
	}
}

// NewPager returns a pager with no budget and an empty GMD over store.
// pageSize is the flash page size translation-page costs are counted in.
func NewPager(store *Table, pageSize int) *Pager {
	if pageSize < 1 {
		pageSize = 1
	}
	return &Pager{
		store:    store,
		pageSize: pageSize,
		gmd:      make(map[addr.GroupID]*gmdEntry),
		fast:     true,
	}
}

// imagePages returns the flash pages an n-byte image occupies.
func (p *Pager) imagePages(n int) int {
	pages := (n + p.pageSize - 1) / p.pageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// SetBudget sets the resident-set byte budget (≤ 0 disables the cap). It
// does not evict; the next Enforce does.
func (p *Pager) SetBudget(bytes int) {
	p.budget = bytes
	p.refresh()
}

// Budget returns the configured byte budget.
func (p *Pager) Budget() int { return p.budget }

// FastPath reports that every known group is resident and within budget,
// so lookups may skip the pager (no fault is possible; reference bits are
// skipped, which only costs CLOCK precision once pressure appears).
func (p *Pager) FastPath() bool { return p.fast }

// Paging reports that the budget has actually bound at least once:
// groups are (or have been) backed by flash images. Until then the
// scheme behaves — and charges — exactly like the unbudgeted table,
// and holds no serialized images.
func (p *Pager) Paging() bool { return p.evicted > 0 || p.flashPages > 0 }

// Stats returns the paging event counters.
func (p *Pager) Stats() PagerStats { return p.stats }

// TranslationPages returns the flash pages currently occupied by group
// images (the translation-block footprint charged against
// over-provisioned capacity).
func (p *Pager) TranslationPages() int { return p.flashPages }

// FullSizeBytes returns the complete mapping size, resident or not.
// Groups restored from images that were never decoded count 0 until
// first loaded.
func (p *Pager) FullSizeBytes() int { return p.store.SizeBytes() + p.evictedBytes }

// MappingDigest hashes every registered group's record in ascending
// group order with FNV-64a: a resident group's MarshalGroup record, an
// evicted one's current translation-page image (under the journal, its
// live journal record). It reads without side effects.
func (p *Pager) MappingDigest() uint64 {
	gids := make([]addr.GroupID, 0, len(p.gmd))
	for gid := range p.gmd {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	h := fnv.New64a()
	for _, gid := range gids {
		e := p.gmd[gid]
		var img []byte
		switch {
		case e.resident:
			if !p.store.HasGroup(gid) {
				continue // registered, never materialized
			}
			var err error
			if img, err = p.store.MarshalGroup(gid); err != nil {
				panic(fmt.Sprintf("core: group %d does not marshal: %v", gid, err))
			}
		case p.journal != nil:
			img = p.journal.groups[gid].bytes
		default:
			img = e.image
		}
		h.Write(img)
	}
	return h.Sum64()
}

// refresh recomputes the cached FastPath bit. Size only changes under
// mutation, so lookups can trust the cache without touching the store.
func (p *Pager) refresh() {
	p.fast = p.evicted == 0 && (p.budget <= 0 || p.store.SizeBytes() <= p.budget)
}

// EnsureRead makes gid resident for a lookup. known is false when the
// group has no state anywhere (never written); the caller treats the
// LPA as unmapped without touching the store.
func (p *Pager) EnsureRead(gid addr.GroupID) (cost ftl.Cost, known bool) {
	e := p.gmd[gid]
	if e == nil {
		return cost, false
	}
	if e.resident {
		e.ref = true
		return cost, true
	}
	cost = p.load(gid, e)
	return cost, true
}

// EnsureWrite makes gid resident for a commit, creating the GMD entry
// for a brand-new group, and marks it dirty.
func (p *Pager) EnsureWrite(gid addr.GroupID) ftl.Cost {
	var cost ftl.Cost
	e := p.gmd[gid]
	if e == nil {
		e = &gmdEntry{resident: true}
		p.gmd[gid] = e
		p.ring = append(p.ring, gid)
	} else if !e.resident {
		cost = p.load(gid, e)
	}
	e.ref = true
	e.dirty = true
	return cost
}

// load demand-loads an evicted group back into the store: from its GMD
// image, or — under the journal — from its one live record, charging
// the flash pages that record spans.
func (p *Pager) load(gid addr.GroupID, e *gmdEntry) ftl.Cost {
	img, cost := e.image, ftl.Cost{}
	if p.journal != nil {
		img, cost = p.journal.load(gid)
	}
	if _, err := p.store.InstallGroup(img); err != nil {
		panic(fmt.Sprintf("core: GMD image for group %d does not install: %v", gid, err))
	}
	e.resident = true
	e.dirty = false
	e.ref = true
	p.ring = append(p.ring, gid)
	p.evicted--
	p.evictedBytes -= e.dramBytes
	p.stats.Faults++
	p.fast = false // a fault implies pressure; Enforce will re-evaluate
	if p.journal != nil {
		return cost
	}
	n := p.imagePages(len(e.image))
	return ftl.Cost{MetaReads: n, ReadIDs: pageIDs(e.ppa, n)}
}

// Enforce evicts CLOCK victims until the resident set fits the budget.
// Call it after any operation that may have grown the table or loaded a
// group; the just-used groups carry fresh reference bits and get a
// second chance.
func (p *Pager) Enforce() ftl.Cost {
	var cost ftl.Cost
	if p.budget > 0 {
		for p.store.SizeBytes() > p.budget && len(p.ring) > 0 {
			cost.Add(p.evictOne())
		}
	}
	p.refresh()
	return cost
}

// evictOne runs the CLOCK sweep and evicts the first unreferenced group.
func (p *Pager) evictOne() ftl.Cost {
	for sweep := 0; sweep <= 2*len(p.ring); sweep++ {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		gid := p.ring[p.hand]
		e := p.gmd[gid]
		if e.ref {
			e.ref = false
			p.hand++
			continue
		}
		return p.evict(gid, e)
	}
	panic("core: CLOCK sweep found no victim in a non-empty ring")
}

// evict pages one group out: rewrite its image if the DRAM copy
// diverged, then drop the DRAM copy.
func (p *Pager) evict(gid addr.GroupID, e *gmdEntry) ftl.Cost {
	var cost ftl.Cost
	if !p.store.HasGroup(gid) {
		// Phantom entry (group registered but never materialized);
		// forget it.
		delete(p.gmd, gid)
		p.unring(gid)
		return cost
	}
	persisted := e.image != nil
	if p.journal != nil {
		persisted = p.journal.has(gid)
	}
	if e.dirty || !persisted {
		cost.Add(p.writeback(gid, e))
	}
	freed, _ := p.store.DropGroup(gid)
	e.dramBytes = freed
	e.resident = false
	e.dirty = false
	p.evicted++
	p.evictedBytes += freed
	p.stats.Evictions++
	p.unring(gid)
	return cost
}

// writeback serializes the group's current state into a fresh
// translation-page image (log-structured: a new virtual PPA each write).
// Under the journal, the image is appended into the journal's shared
// translation pages instead.
func (p *Pager) writeback(gid addr.GroupID, e *gmdEntry) ftl.Cost {
	img, err := p.store.MarshalGroup(gid)
	if err != nil {
		panic(fmt.Sprintf("core: group %d does not marshal: %v", gid, err))
	}
	if p.journal != nil {
		cost := p.journal.writeback(gid, img)
		p.flashPages = p.journal.pages()
		e.dirty = false
		p.stats.DirtyWritebacks++
		return cost
	}
	if e.image != nil {
		p.flashPages -= p.imagePages(len(e.image))
	}
	e.image = img
	p.nextPPA++
	e.ppa = p.nextPPA
	p.flashPages += p.imagePages(len(img))
	e.dirty = false
	p.stats.DirtyWritebacks++
	n := p.imagePages(len(img))
	return ftl.Cost{MetaWrites: n, WriteIDs: pageIDs(e.ppa, n)}
}

// unring removes gid from the CLOCK ring, keeping the hand on the
// element that followed it.
func (p *Pager) unring(gid addr.GroupID) {
	for i, id := range p.ring {
		if id == gid {
			copy(p.ring[i:], p.ring[i+1:])
			p.ring = p.ring[:len(p.ring)-1]
			if p.hand > i {
				p.hand--
			}
			return
		}
	}
}

// MarkDirty flags one resident group dirty (compaction reshaped it in
// place, so its image must be rewritten at the next FlushDirty).
func (p *Pager) MarkDirty(gid addr.GroupID) {
	if e := p.gmd[gid]; e != nil && e.resident {
		e.dirty = true
	}
}

// FlushDirty persists every dirty resident group (the periodic §3.8
// table persistence, now group-granular: clean groups cost nothing).
func (p *Pager) FlushDirty() ftl.Cost {
	var cost ftl.Cost
	for _, gid := range p.ring {
		e := p.gmd[gid]
		if e.dirty && p.store.HasGroup(gid) {
			cost.Add(p.writeback(gid, e))
		}
	}
	p.refresh()
	return cost
}

// PersistedGroups returns the translation-page images that are current
// (the flash copies a crash cannot lose): every evicted group, plus
// resident groups whose image matches DRAM. Dirty resident groups are
// absent — their latest state exists only in DRAM. The returned slices
// are the live images; callers must not mutate them.
func (p *Pager) PersistedGroups() map[addr.GroupID][]byte {
	if p.journal != nil {
		// Every journaled group's live record. Dirty residents are
		// excluded — their journal record predates the DRAM-only
		// updates, matching the image path's staleness rule.
		return p.journal.images(func(gid addr.GroupID) bool {
			e := p.gmd[gid]
			return e != nil && e.resident && e.dirty
		})
	}
	out := make(map[addr.GroupID][]byte)
	for gid, e := range p.gmd {
		if e.image != nil && !e.dirty {
			out[gid] = e.image
		}
	}
	return out
}

// RestoreGroups seeds an empty pager's GMD with persisted images
// (recovery): groups start paged out and demand-load on first access,
// so restoring costs no DRAM up front. FullSizeBytes undercounts these
// groups until they are first loaded.
func (p *Pager) RestoreGroups(images map[addr.GroupID][]byte) error {
	gids := make([]addr.GroupID, 0, len(images))
	for gid := range images {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		img := images[gid]
		// Check the image now, on both paths: stored unread, a corrupt
		// one would surface only when a later access loads it.
		if got, _, err := decodeGroupRecord(img); err != nil {
			return fmt.Errorf("core: group %d restore image: %w", gid, err)
		} else if got != gid {
			return fmt.Errorf("core: group %d restore image claims group %d", gid, got)
		}
		if e := p.gmd[gid]; e != nil {
			return fmt.Errorf("core: group %d already in the GMD", gid)
		}
		if p.store.HasGroup(gid) {
			return fmt.Errorf("core: group %d already resident; restore wants an empty table", gid)
		}
		p.nextPPA++
		if p.journal != nil {
			// Seed the journal uncharged: the image's pages already
			// exist on flash, recovery only rebuilds the RAM directory.
			p.journal.seed(gid, img)
			p.gmd[gid] = &gmdEntry{ppa: p.nextPPA}
		} else {
			p.gmd[gid] = &gmdEntry{ppa: p.nextPPA, image: img}
			p.flashPages += p.imagePages(len(img))
		}
		p.evicted++
	}
	if p.journal != nil {
		p.flashPages = p.journal.pages()
	}
	p.refresh()
	return nil
}

// Check audits the GMD against the store: residency bits, ring
// membership, flash-page accounting, and the budget cap. It is the
// mapping-side leg of the device's CheckInvariants.
func (p *Pager) Check() error {
	onRing := make(map[addr.GroupID]bool, len(p.ring))
	for _, gid := range p.ring {
		if onRing[gid] {
			return fmt.Errorf("gmd: group %d appears twice on the CLOCK ring", gid)
		}
		onRing[gid] = true
	}
	evicted, evictedBytes, flashPages := 0, 0, 0
	for gid, e := range p.gmd {
		if e.image != nil {
			flashPages += p.imagePages(len(e.image))
		}
		persisted := e.image != nil
		if p.journal != nil {
			if e.image != nil {
				return fmt.Errorf("gmd: group %d holds a full image with the journal on", gid)
			}
			persisted = p.journal.has(gid)
		}
		switch {
		case e.resident && !onRing[gid]:
			return fmt.Errorf("gmd: resident group %d missing from the CLOCK ring", gid)
		case !e.resident && onRing[gid]:
			return fmt.Errorf("gmd: evicted group %d still on the CLOCK ring", gid)
		case e.resident && !p.store.HasGroup(gid):
			return fmt.Errorf("gmd: group %d marked resident but absent from the table", gid)
		case !e.resident && p.store.HasGroup(gid):
			return fmt.Errorf("gmd: group %d marked evicted but present in the table", gid)
		case !e.resident && !persisted:
			return fmt.Errorf("gmd: evicted group %d has no translation-page image", gid)
		case !e.resident && e.dirty:
			return fmt.Errorf("gmd: evicted group %d is dirty (evictions write back)", gid)
		}
		if !e.resident {
			evicted++
			evictedBytes += e.dramBytes
		}
	}
	for _, gid := range p.store.ResidentGroups() {
		if e := p.gmd[gid]; e == nil {
			return fmt.Errorf("gmd: table group %d has no GMD entry", gid)
		}
	}
	if p.journal != nil {
		flashPages = p.journal.pages()
	}
	switch {
	case evicted != p.evicted:
		return fmt.Errorf("gmd: %d evicted entries, counter says %d", evicted, p.evicted)
	case evictedBytes != p.evictedBytes:
		return fmt.Errorf("gmd: %d evicted bytes, counter says %d", evictedBytes, p.evictedBytes)
	case flashPages != p.flashPages:
		return fmt.Errorf("gmd: %d image pages, counter says %d", flashPages, p.flashPages)
	}
	if p.journal != nil {
		if err := p.journal.check(); err != nil {
			return err
		}
	}
	if p.budget > 0 && p.store.SizeBytes() > p.budget {
		return fmt.Errorf("gmd: resident set %dB exceeds budget %dB", p.store.SizeBytes(), p.budget)
	}
	return nil
}
