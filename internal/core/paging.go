package core

import (
	"fmt"
	"sort"

	"leaftl/internal/addr"
)

// Demand paging of the learned mapping table (paper §3.8): segment groups
// not backed by DRAM live as serialized records in flash translation
// pages, tracked by a Global Mapping Directory (GMD). The Pager is the
// machinery behind a scheme's SetBudget: it decides which groups stay
// resident (a CLOCK second-chance policy — a one-bit LRU — over the
// resident set), demand-loads evicted groups on access, and reports every
// transfer as counts of translation-page flash operations so the SSD can
// charge them on its flash timelines.
//
// A Pager is not safe for concurrent use; the device serializes every
// call into the scheme that owns it.

// PageCost counts translation-page flash operations a paging action
// induced: reads for demand loads, writes for dirty evictions and
// persistence.
type PageCost struct {
	MetaReads  int
	MetaWrites int

	// ReadIDs/WriteIDs name the virtual translation PPA behind each
	// counted operation, in charge order, so the device can route the op
	// to the die holding that page (multi-page images get one id per
	// constituent page).
	ReadIDs  []uint64
	WriteIDs []uint64
}

// Add accumulates o into c.
func (c *PageCost) Add(o PageCost) {
	c.MetaReads += o.MetaReads
	c.MetaWrites += o.MetaWrites
	c.ReadIDs = append(c.ReadIDs, o.ReadIDs...)
	c.WriteIDs = append(c.WriteIDs, o.WriteIDs...)
}

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

	// journal, when non-nil, replaces the full-image writeback path with
	// the mapping-delta log (journal.go): dirty evictions append deltas,
	// demand loads replay base+chain, and gmdEntry.image stays nil — the
	// journal owns the durable bytes. Nil keeps the image path
	// bit-identical to its pre-journal behavior.
	journal *journal
}

// EnableJournal switches metadata persistence to the mapping-delta
// journal. Call before any paging activity; enabling an already-active
// pager would orphan existing images.
func (p *Pager) EnableJournal() {
	if p.journal == nil {
		p.journal = newJournal(p.pageSize)
	}
}

// JournalEnabled reports whether the mapping-delta journal is on.
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
func (p *Pager) JournalStats() JournalStats {
	if p.journal == nil {
		return JournalStats{}
	}
	return p.journal.Stats()
}

// SetJournalHook installs the crash-injection hook fired before journal
// GC ("journal.gc") and each chain fold ("journal.fold").
func (p *Pager) SetJournalHook(fn func(string)) {
	if p.journal != nil {
		p.journal.hook = fn
	}
}

// NewPager returns an inactive pager (no budget, empty GMD) over store.
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

// SetBudget sets the resident-set byte budget (≤ 0 disables the cap) and
// adopts any groups already resident in the store so their dirtiness is
// tracked from here on. It does not evict; the next Enforce does.
func (p *Pager) SetBudget(bytes int) {
	p.budget = bytes
	if p.Active() {
		p.adoptResident()
	}
	p.refresh()
}

// Budget returns the configured byte budget.
func (p *Pager) Budget() int { return p.budget }

// Active reports whether the pager is tracking group state: a budget is
// set, or the GMD already holds entries (e.g. restored from recovery).
// When inactive, the scheme bypasses the pager entirely.
func (p *Pager) Active() bool { return p.budget > 0 || len(p.gmd) > 0 }

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

// EvictedGroups returns how many groups are currently paged out.
func (p *Pager) EvictedGroups() int { return p.evicted }

// TranslationPages returns the flash pages currently occupied by group
// images (the translation-block footprint charged against
// over-provisioned capacity).
func (p *Pager) TranslationPages() int { return p.flashPages }

// FullSizeBytes returns the complete mapping size, resident or not.
// Groups restored from images that were never decoded count 0 until
// first loaded.
func (p *Pager) FullSizeBytes() int { return p.store.SizeBytes() + p.evictedBytes }

// refresh recomputes the cached FastPath bit. Size only changes under
// mutation, so lookups can trust the cache without touching the store.
func (p *Pager) refresh() {
	p.fast = p.evicted == 0 && (p.budget <= 0 || p.store.SizeBytes() <= p.budget)
}

// adoptResident creates GMD entries for store-resident groups the pager
// has not seen (budget enabled after traffic, or a snapshot restore).
// Adopted groups are dirty: no image exists yet.
func (p *Pager) adoptResident() {
	for _, id := range p.store.ResidentGroups() {
		if p.gmd[id] == nil {
			p.gmd[id] = &gmdEntry{resident: true, dirty: true, ref: true}
			p.ring = append(p.ring, id)
		}
	}
}

// EnsureRead makes gid resident for a lookup. known is false when the
// group has no state anywhere (never written); the caller treats the
// LPA as unmapped without touching the store.
func (p *Pager) EnsureRead(gid addr.GroupID) (cost PageCost, known bool) {
	e := p.gmd[gid]
	if e == nil {
		if !p.store.HasGroup(gid) {
			return cost, false
		}
		// Self-heal: a resident group the GMD missed (defensive; the
		// commit path registers every group it creates).
		p.gmd[gid] = &gmdEntry{resident: true, dirty: true, ref: true}
		p.ring = append(p.ring, gid)
		return cost, true
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
func (p *Pager) EnsureWrite(gid addr.GroupID) PageCost {
	var cost PageCost
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
// image, or — under the journal — by replaying its base image plus
// delta chain, charging every distinct flash page the chain touches.
func (p *Pager) load(gid addr.GroupID, e *gmdEntry) PageCost {
	img, cost := e.image, PageCost{}
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
	return PageCost{MetaReads: n, ReadIDs: pageIDs(e.ppa, n)}
}

// Enforce evicts CLOCK victims until the resident set fits the budget.
// Call it after any operation that may have grown the table or loaded a
// group; the just-used groups carry fresh reference bits and get a
// second chance.
func (p *Pager) Enforce() PageCost {
	var cost PageCost
	if p.budget > 0 {
		for p.store.SizeBytes() > p.budget && len(p.ring) > 0 {
			cost.Add(p.evictOne())
		}
	}
	p.refresh()
	return cost
}

// evictOne runs the CLOCK sweep and evicts the first unreferenced group.
func (p *Pager) evictOne() PageCost {
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
func (p *Pager) evict(gid addr.GroupID, e *gmdEntry) PageCost {
	var cost PageCost
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
// Under the journal, the full rewrite becomes a delta append: only the
// sections that changed since the group's base image travel to flash.
func (p *Pager) writeback(gid addr.GroupID, e *gmdEntry) PageCost {
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
	return PageCost{MetaWrites: n, WriteIDs: pageIDs(e.ppa, n)}
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
func (p *Pager) FlushDirty() PageCost {
	var cost PageCost
	p.adoptResident() // groups created outside the budgeted path, if any
	for _, gid := range p.ring {
		e := p.gmd[gid]
		if e.dirty && p.store.HasGroup(gid) {
			cost.Add(p.writeback(gid, e))
		}
	}
	p.refresh()
	return cost
}

// EvictedImages returns the current image of every paged-out group, for
// full-table snapshots (resident groups serialize fresh from DRAM). The
// returned slices are the live images; callers must not mutate them.
func (p *Pager) EvictedImages() map[addr.GroupID][]byte {
	out := make(map[addr.GroupID][]byte, p.evicted)
	for gid, e := range p.gmd {
		if !e.resident {
			if p.journal != nil {
				out[gid] = p.journal.image(gid)
			} else {
				out[gid] = e.image
			}
		}
	}
	return out
}

// Reset forgets all GMD and cache state (a snapshot restore replaced the
// table wholesale) and re-adopts whatever is now resident under the
// existing budget.
func (p *Pager) Reset() {
	p.gmd = make(map[addr.GroupID]*gmdEntry)
	p.ring = p.ring[:0]
	p.hand = 0
	p.evicted, p.evictedBytes, p.flashPages = 0, 0, 0
	if p.journal != nil {
		fresh := newJournal(p.pageSize)
		fresh.configure(p.journal.ppb, p.journal.maxPages)
		fresh.hook = p.journal.hook
		p.journal = fresh
	}
	if p.Active() {
		p.adoptResident()
	}
	p.refresh()
}

// PersistedGroups returns the translation-page images that are current
// (the flash copies a crash cannot lose): every evicted group, plus
// resident groups whose image matches DRAM. Dirty resident groups are
// absent — their latest state exists only in DRAM. The returned slices
// are the live images; callers must not mutate them.
func (p *Pager) PersistedGroups() map[addr.GroupID][]byte {
	if p.journal != nil {
		// Recovery's journal-tail replay: every journaled group folds its
		// base image plus delta chain. Dirty residents are excluded —
		// their journal state predates the DRAM-only updates, matching
		// the image path's staleness rule.
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
		if len(img) == 0 {
			return fmt.Errorf("core: empty image for group %d", gid)
		}
		if e := p.gmd[gid]; e != nil {
			return fmt.Errorf("core: group %d already in the GMD", gid)
		}
		if p.store.HasGroup(gid) {
			return fmt.Errorf("core: group %d already resident; restore wants an empty table", gid)
		}
		p.nextPPA++
		if p.journal != nil {
			// Seed the journal base uncharged: the image's pages already
			// exist on flash, recovery only rebuilds the RAM directory.
			if err := p.journal.seed(gid, img); err != nil {
				return err
			}
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
	if !p.Active() {
		return nil
	}
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
