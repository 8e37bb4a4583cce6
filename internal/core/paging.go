package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// Demand paging of the learned mapping table (paper §3.8): segment groups
// are persisted as serialized records in flash translation pages,
// tracked by a Global Mapping Directory (GMD). The Pager is the machinery
// behind a scheme's SetBudget and its periodic persistence: it decides
// which groups stay resident (a CLOCK second-chance policy — a one-bit
// LRU — over the resident set), demand-loads evicted groups on access,
// writes dirty groups back (FlushDirty, at every budget; evictions write
// back too) into the metadata journal's log-structured translation
// blocks (journal.go), and reports every transfer as an ftl.Cost —
// counts of translation-page flash operations, each named by the
// journal page it touches — so the SSD can charge them on the flash
// timelines of the dies holding those pages. The pager is the one home
// of the GMD and of every group's persisted record: every group is
// registered at its first commit, its record and the record's placement
// (the span of translation pages it occupies) live in its GMD entry, the
// journal only allocates the pages, and a budget ≤ 0 simply never
// evicts.
//
// A Pager is not safe for concurrent use; the device serializes every
// call into the scheme that owns it.

// PagerStats counts paging events since the pager was created.
type PagerStats struct {
	// Faults counts demand loads of evicted groups.
	Faults uint64
	// Evictions counts groups dropped from DRAM.
	Evictions uint64
	// DirtyWritebacks counts group writebacks (dirty evictions plus
	// periodic persistence), byte-identical ones included.
	DirtyWritebacks uint64
}

// gmdEntry is one Global Mapping Directory slot: the group's persisted
// record and where it lives, whether a DRAM copy exists, and whether that
// copy has diverged from the record. The entry is the one home of the
// record's bytes and of its placement; the journal only allocates the
// pages.
type gmdEntry struct {
	image []byte // serialized group record (nil: never persisted)
	// first and last name the record's first and last translation pages
	// in the journal's page sequence (journalPageIDBit | sequence); the
	// pages between them hold the rest.
	first, last uint64
	block       *jblock // journal block holding the record (nil: never persisted)
	dramBytes   int     // decoded footprint at last eviction (FullSizeBytes accounting)
	resident    bool
	dirty       bool // DRAM copy differs from the record
	ref         bool // CLOCK reference bit
}

// Pager demand-pages a table's segment groups against a byte budget.
type Pager struct {
	store  *Table
	budget int // ≤ 0: unlimited (loads still happen for evicted groups)

	gmd  map[addr.GroupID]*gmdEntry
	ring []addr.GroupID // CLOCK ring over resident groups, insertion order
	hand int

	evicted      int  // non-resident GMD entries
	evictedBytes int  // Σ dramBytes over non-resident entries
	fast         bool // cached FastPath value, refreshed on mutation
	stats        PagerStats

	// scratch is the buffer writebacks marshal into before copying a
	// changed record into its entry.
	scratch []byte
	// slab is the buffer records that outgrow their storage are cut
	// from (carve).
	slab []byte

	// journal places the records in shared translation pages
	// (journal.go).
	journal *journal
}

// ConfigureJournal sets the journal's translation-block geometry and
// footprint cap, both positive (device wiring calls this once flash
// geometry and the metadata share of over-provisioning are known). The
// pager persists no record before this call.
func (p *Pager) ConfigureJournal(pagesPerBlock, maxPages int) {
	p.journal.configure(pagesPerBlock, maxPages)
}

// JournalStats snapshots the journal counters.
func (p *Pager) JournalStats() ftl.JournalStats { return p.journal.Stats() }

// SetJournalHook installs the crash-injection hook fired before journal
// GC ("journal.gc") and before each live record it re-appends
// ("journal.fold").
func (p *Pager) SetJournalHook(fn func(string)) { p.journal.hook = fn }

// NewPager returns a pager with no budget and an empty GMD over store.
// pageSize is the flash page size translation-page costs are counted in.
func NewPager(store *Table, pageSize int) *Pager {
	if pageSize < 1 {
		pageSize = 1
	}
	gmd := make(map[addr.GroupID]*gmdEntry)
	return &Pager{
		store:   store,
		gmd:     gmd,
		fast:    true,
		journal: newJournal(pageSize, gmd),
	}
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

// Stats returns the paging event counters.
func (p *Pager) Stats() PagerStats { return p.stats }

// TranslationPages returns the flash pages currently occupied by group
// records (the translation-block footprint charged against
// over-provisioned capacity).
func (p *Pager) TranslationPages() int { return p.journal.pages() }

// FullSizeBytes returns the complete mapping size, resident or not.
// Groups restored from records that were never decoded count 0 until
// first loaded.
func (p *Pager) FullSizeBytes() int { return p.store.SizeBytes() + p.evictedBytes }

// MappingDigest hashes every registered group's record in ascending
// group order with FNV-64a: a resident group's MarshalGroup record, an
// evicted one's persisted record. It reads without side effects.
func (p *Pager) MappingDigest() uint64 {
	gids := make([]addr.GroupID, 0, len(p.gmd))
	for gid := range p.gmd {
		gids = append(gids, gid)
	}
	slices.Sort(gids)
	h := fnv.New64a()
	for _, gid := range gids {
		e := p.gmd[gid]
		img := e.image
		if e.resident {
			if !p.store.HasGroup(gid) {
				continue // registered, never materialized
			}
			var err error
			if img, err = p.store.MarshalGroup(gid); err != nil {
				panic(fmt.Sprintf("core: group %d does not marshal: %v", gid, err))
			}
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
	p.load(gid, e, &cost)
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
		p.load(gid, e, &cost)
	}
	e.ref = true
	e.dirty = true
	return cost
}

// Defer submits a batch whose groups EnsureWrite has made resident
// without waiting for the table to commit it (Table.Submit), and reports
// whether it did. It does so only when Enforce would provably evict
// nothing once the batch lands: on the fast path, with no budget or with
// the settled footprint plus the ceiling of every group the pending
// batches touch (capped at the groups the GMD knows) within the budget.
// Otherwise the caller commits as before: Update, then Enforce. The
// table panics if a deferred batch breaks that bound when it settles.
func (p *Pager) Defer(pairs []addr.Mapping, groups int) bool {
	t := p.store
	if !p.fast || p.budget > 0 && t.bytes+min(t.ring.queued+groups, len(p.gmd))*groupCeiling > p.budget {
		return false
	}
	t.submit(pairs, max(p.budget, 0), false)
	return true
}

// load demand-loads an evicted group's record back into the store,
// charging into cost the flash pages its entry says the record spans;
// the journal's open tail page is SRAM and free to read.
func (p *Pager) load(gid addr.GroupID, e *gmdEntry, cost *ftl.Cost) {
	if _, err := p.store.InstallGroup(e.image); err != nil {
		panic(fmt.Sprintf("core: GMD record for group %d does not install: %v", gid, err))
	}
	e.resident = true
	e.dirty = false
	e.ref = true
	p.ring = append(p.ring, gid)
	p.evicted--
	p.evictedBytes -= e.dramBytes
	p.stats.Faults++
	p.fast = false // a fault implies pressure; Enforce will re-evaluate
	last := e.last
	if last == p.journal.tail() {
		last--
	}
	for id := e.first; id <= last; id++ {
		cost.AddRead(id)
	}
}

// Enforce evicts CLOCK victims until the resident set fits the budget.
// Call it after any operation that may have grown the table or loaded a
// group; the just-used groups carry fresh reference bits and get a
// second chance.
func (p *Pager) Enforce() ftl.Cost {
	var cost ftl.Cost
	if p.budget > 0 {
		for p.store.SizeBytes() > p.budget && len(p.ring) > 0 {
			p.evictOne(&cost)
		}
	}
	p.refresh()
	return cost
}

// evictOne runs the CLOCK sweep and evicts the first unreferenced group.
func (p *Pager) evictOne(cost *ftl.Cost) {
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
		p.evict(gid, e, cost)
		return
	}
	panic("core: CLOCK sweep found no victim in a non-empty ring")
}

// evict pages one group out: rewrite its record if the DRAM copy
// diverged, then drop the DRAM copy.
func (p *Pager) evict(gid addr.GroupID, e *gmdEntry, cost *ftl.Cost) {
	if !p.store.HasGroup(gid) {
		// Phantom entry (group registered but never materialized);
		// forget it.
		delete(p.gmd, gid)
		p.unring(gid)
		return
	}
	if e.dirty || e.image == nil {
		p.writeback(gid, e, cost)
	}
	freed, _ := p.store.DropGroup(gid)
	e.dramBytes = freed
	e.resident = false
	e.dirty = false
	p.evicted++
	p.evictedBytes += freed
	p.stats.Evictions++
	p.unring(gid)
}

// writeback persists the group's current record and charges it into
// cost. The record is marshaled into the pager's scratch buffer and
// copied into the entry's storage, reusing it when it is big enough
// (keep), and the journal appends it into its shared translation pages.
// A byte-identical record costs nothing: the journal already holds it.
func (p *Pager) writeback(gid addr.GroupID, e *gmdEntry, cost *ftl.Cost) {
	rec, err := appendGroupRecord(p.scratch[:0], gid, p.store.lookupGroup(gid))
	if err != nil {
		panic(fmt.Sprintf("core: group %d does not marshal: %v", gid, err))
	}
	p.scratch = rec
	e.dirty = false
	p.stats.DirtyWritebacks++
	if bytes.Equal(e.image, rec) {
		return
	}
	p.keep(e, rec)
	p.journal.place(e, cost)
	p.journal.stats.Appends++
	p.journal.maybeGC(cost)
}

// keep stores rec as e's record: in place when the entry's storage is
// big enough, otherwise in storage carved from the record slab.
func (p *Pager) keep(e *gmdEntry, rec []byte) {
	if cap(e.image) < len(rec) {
		e.image = p.carve(len(rec))
	}
	e.image = append(e.image[:0], rec...)
}

// carve cuts empty storage of capacity n from the record slab. A slab
// with no room left is replaced by one a quarter larger than every
// record plus n, and every record moves into it, so the old slab —
// with the storage that records outgrew — becomes garbage. Records
// that outgrow their storage thus cost an allocation only when the
// slab's spare quarter runs out, not one each.
func (p *Pager) carve(n int) []byte {
	if len(p.slab)+n > cap(p.slab) {
		need := n
		for _, e := range p.gmd {
			need += len(e.image)
		}
		p.slab = make([]byte, 0, need+need/4)
		for _, e := range p.gmd {
			if e.image != nil {
				e.image = append(p.cut(len(e.image)), e.image...)
			}
		}
	}
	return p.cut(n)
}

// cut returns the slab's next n bytes as empty storage of capacity n.
func (p *Pager) cut(n int) []byte {
	end := len(p.slab) + n
	s := p.slab[len(p.slab):len(p.slab):end]
	p.slab = p.slab[:end]
	return s
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

// FlushDirty writes every dirty resident group back (the periodic §3.8
// table persistence, group-granular: clean groups cost nothing) and
// charges the writebacks into cost.
func (p *Pager) FlushDirty(cost *ftl.Cost) {
	for _, gid := range p.ring {
		e := p.gmd[gid]
		if e.dirty && p.store.HasGroup(gid) {
			p.writeback(gid, e, cost)
		}
	}
	p.refresh()
}

// PersistedGroups returns a copy of every record that is current on
// flash (what a crash cannot lose): every group that has a record and is
// not dirty. Dirty resident groups are absent — their latest state
// exists only in DRAM. The copies belong to the caller: a later
// writeback overwrites the pager's own records in place.
func (p *Pager) PersistedGroups() map[addr.GroupID][]byte {
	out := make(map[addr.GroupID][]byte)
	for gid, e := range p.gmd {
		if e.image != nil && !e.dirty {
			out[gid] = bytes.Clone(e.image)
		}
	}
	return out
}

// RestoreGroups seeds an empty pager's GMD with persisted records
// (recovery): groups start paged out and demand-load on first access,
// so restoring costs no DRAM up front. FullSizeBytes undercounts these
// groups until they are first loaded. The pager takes ownership of the
// records: the caller must not use the slices afterwards.
func (p *Pager) RestoreGroups(images map[addr.GroupID][]byte) error {
	gids := make([]addr.GroupID, 0, len(images))
	for gid := range images {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		img := images[gid]
		// Check the record now: stored unread, a corrupt one would
		// surface only when a later access loads it.
		if got, _, err := decodeGroupRecord(img); err != nil {
			return fmt.Errorf("core: group %d restore record: %w", gid, err)
		} else if got != gid {
			return fmt.Errorf("core: group %d restore record claims group %d", gid, got)
		}
		if e := p.gmd[gid]; e != nil {
			return fmt.Errorf("core: group %d already in the GMD", gid)
		}
		if p.store.HasGroup(gid) {
			return fmt.Errorf("core: group %d already resident; restore wants an empty table", gid)
		}
		e := &gmdEntry{image: img}
		p.gmd[gid] = e
		p.evicted++
		// Place the record uncharged: its pages already exist on flash,
		// recovery only rebuilds the RAM directory.
		p.journal.place(e, nil)
	}
	p.refresh()
	return nil
}

// Check audits the GMD against the store: residency bits, ring
// membership, dirty bits (a group changed since its last rebuild has not
// been written back), the journal's accounting (every record's block and
// every block's live count), and the budget cap. It is the mapping-side
// leg of the device's CheckInvariants.
func (p *Pager) Check() error {
	onRing := make(map[addr.GroupID]bool, len(p.ring))
	for _, gid := range p.ring {
		if onRing[gid] {
			return fmt.Errorf("gmd: group %d appears twice on the CLOCK ring", gid)
		}
		onRing[gid] = true
	}
	evicted, evictedBytes := 0, 0
	live := make(map[*jblock]int)
	for gid, e := range p.gmd {
		if e.image != nil {
			if got, _, err := decodeGroupRecord(e.image); err != nil {
				return fmt.Errorf("gmd: group %d record: %w", gid, err)
			} else if got != gid {
				return fmt.Errorf("gmd: group %d record claims group %d", gid, got)
			}
			if e.block == nil {
				return fmt.Errorf("gmd: group %d's journaled record has no translation block", gid)
			}
			live[e.block]++
		}
		switch {
		case e.resident && !onRing[gid]:
			return fmt.Errorf("gmd: resident group %d missing from the CLOCK ring", gid)
		case !e.resident && onRing[gid]:
			return fmt.Errorf("gmd: evicted group %d still on the CLOCK ring", gid)
		case e.resident && !p.store.HasGroup(gid):
			return fmt.Errorf("gmd: group %d marked resident but absent from the table", gid)
		case e.resident && !e.dirty && p.store.lookupGroup(gid).touched:
			return fmt.Errorf("gmd: group %d changed since its last rebuild but is clean", gid)
		case !e.resident && p.store.HasGroup(gid):
			return fmt.Errorf("gmd: group %d marked evicted but present in the table", gid)
		case !e.resident && e.image == nil:
			return fmt.Errorf("gmd: evicted group %d has no persisted record", gid)
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
	switch {
	case evicted != p.evicted:
		return fmt.Errorf("gmd: %d evicted entries, counter says %d", evicted, p.evicted)
	case evictedBytes != p.evictedBytes:
		return fmt.Errorf("gmd: %d evicted bytes, counter says %d", evictedBytes, p.evictedBytes)
	}
	if err := p.journal.check(live); err != nil {
		return err
	}
	if p.budget > 0 && p.store.SizeBytes() > p.budget {
		return fmt.Errorf("gmd: resident set %dB exceeds budget %dB", p.store.SizeBytes(), p.budget)
	}
	return nil
}
