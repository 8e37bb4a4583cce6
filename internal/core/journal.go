package core

import (
	"fmt"
	"slices"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// Log-structured metadata persistence (the metadata journal): instead of
// writing each group image to translation pages of its own, the pager
// appends the group's whole current record — MarshalGroup's output, the
// one wire format (persist.go) — into the open translation page, packed
// back to back with other groups' records. A group has exactly one live
// record; each writeback supersedes the previous one, so a demand load
// reads only the pages that one record spans. The record's bytes live in
// the pager's GMD entry (gmdEntry.image), as they do without the
// journal; the journal keeps only where each record landed and what
// the appends, loads and folds cost.
//
// Translation blocks are a dedicated allocation stream: records never
// span blocks (the open block seals early when a record would not fit),
// and the journal reclaims its own blocks with a victim policy scored by
// live-record count rather than the data path's valid-page count. The
// open tail page is held in capacitor-backed controller SRAM, so appends
// are durable the moment they land and only *filled* pages are charged
// as flash programs.

// journalPageIDBit tags journal translation-page identities so they
// never collide with the pager's image PPAs when the device routes meta
// operations to dies.
const journalPageIDBit = uint64(1) << 62

// jrec is where a group's live journal record landed.
type jrec struct {
	block *jblock // nil when the block stream is unconfigured
	first uint64  // page-sequence span; last may be the open SRAM page
	last  uint64
	n     int // record length in bytes
}

// jblock is one translation block of the journal's allocation stream.
type jblock struct {
	id     int
	live   int // live records in this block
	used   int // bytes appended into this block
	sealed bool
}

// journal is the pager-owned metadata log. Not safe for concurrent use;
// the owning Pager's callers serialize access.
type journal struct {
	pageSize int
	ppb      int // pages per translation block; 0 = single unbounded stream
	maxPages int // translation-footprint cap driving GC; 0 = uncapped

	groups map[addr.GroupID]jrec
	blocks []*jblock // allocation order; the last entry is the open head
	nextID int

	pageSeq  uint64 // id of the open tail page
	pageFill int    // bytes in the open tail page (SRAM, uncharged)

	stats ftl.JournalStats
	hook  func(string)
}

func newJournal(pageSize int) *journal {
	if pageSize < 1 {
		pageSize = 1
	}
	return &journal{
		pageSize: pageSize,
		groups:   make(map[addr.GroupID]jrec),
	}
}

// configure sets the translation-block geometry and footprint cap. It is
// called once device-side wiring knows the flash geometry and the
// over-provisioning share granted to metadata.
func (j *journal) configure(pagesPerBlock, maxPages int) {
	if pagesPerBlock > 0 {
		j.ppb = pagesPerBlock
	}
	if maxPages > 0 {
		j.maxPages = maxPages
	}
}

func (j *journal) hookFire(point string) {
	if j.hook != nil {
		j.hook(point)
	}
}

// pages returns the translation-footprint in flash pages: whole blocks
// when the block stream is configured (allocation is erase-unit
// granular), charged pages plus the open tail otherwise.
func (j *journal) pages() int {
	if j.ppb > 0 {
		return len(j.blocks) * j.ppb
	}
	n := int(j.pageSeq)
	if j.pageFill > 0 {
		n++
	}
	return n
}

// Stats snapshots the counters plus current occupancy.
func (j *journal) Stats() ftl.JournalStats {
	s := j.stats
	s.Pages = j.pages()
	s.Blocks = len(j.blocks)
	s.Groups = len(j.groups)
	return s
}

// openBlock returns the unsealed head block, allocating one if needed.
func (j *journal) openBlock() *jblock {
	if n := len(j.blocks); n > 0 && !j.blocks[n-1].sealed {
		return j.blocks[n-1]
	}
	b := &jblock{id: j.nextID}
	j.nextID++
	j.blocks = append(j.blocks, b)
	return b
}

// sealOpen closes the head block early: the partial SRAM tail page is
// flushed (and charged into cost, when non-nil) since its block is now
// immutable.
func (j *journal) sealOpen(cost *ftl.Cost) {
	n := len(j.blocks)
	if n == 0 || j.blocks[n-1].sealed {
		return
	}
	b := j.blocks[n-1]
	if j.pageFill > 0 {
		if cost != nil {
			cost.AddWrite(journalPageIDBit | j.pageSeq)
		}
		j.pageSeq++
		j.pageFill = 0
	}
	b.sealed = true
}

// appendRec packs an n-byte record into the log, charging into cost one
// MetaWrite per page filled (the open tail page is capacitor-backed SRAM
// and costs nothing until full). Records never span blocks: the open
// block seals early when the record would not fit. A nil cost seeds
// recovery state whose pages already exist on flash.
func (j *journal) appendRec(n int, cost *ftl.Cost) jrec {
	var block *jblock
	if j.ppb > 0 {
		capacity := j.ppb * j.pageSize
		if n > capacity {
			panic(fmt.Sprintf("core: %dB journal record exceeds a %dB translation block", n, capacity))
		}
		b := j.openBlock()
		if b.used+n > capacity {
			j.sealOpen(cost)
			b = j.openBlock()
		}
		b.used += n
		b.live++
		block = b
	}
	meta := jrec{block: block, first: j.pageSeq, n: n}
	for remaining := n; remaining > 0; {
		k := min(j.pageSize-j.pageFill, remaining)
		j.pageFill += k
		remaining -= k
		if j.pageFill == j.pageSize {
			if cost != nil {
				cost.AddWrite(journalPageIDBit | j.pageSeq)
			}
			j.pageSeq++
			j.pageFill = 0
		}
	}
	meta.last = j.pageSeq
	if j.pageFill == 0 && j.pageSeq > meta.first {
		meta.last = j.pageSeq - 1
	}
	if block != nil && block.used == j.ppb*j.pageSize {
		block.sealed = true
	}
	return meta
}

// put appends an n-byte record for gid and retires the record it
// supersedes, charging into cost (nil: uncharged).
func (j *journal) put(gid addr.GroupID, n int, cost *ftl.Cost) {
	if old, ok := j.groups[gid]; ok && old.block != nil {
		old.block.live--
	}
	j.groups[gid] = j.appendRec(n, cost)
}

// writeback logs a group's new n-byte record, which supersedes the
// group's previous one, and charges into cost the pages it fills and
// any journal GC the append triggers.
func (j *journal) writeback(gid addr.GroupID, n int, cost *ftl.Cost) {
	j.put(gid, n, cost)
	j.stats.Appends++
	j.maybeGC(cost)
}

// load charges into cost the flash reads a group's demand load takes:
// the charged pages its one record spans (the open SRAM tail is free).
func (j *journal) load(gid addr.GroupID, cost *ftl.Cost) {
	rec, ok := j.groups[gid]
	if !ok {
		panic(fmt.Sprintf("core: journal load of unknown group %d", gid))
	}
	for p := rec.first; p <= rec.last && p < j.pageSeq; p++ {
		cost.AddRead(journalPageIDBit | p)
	}
}

// maybeGC reclaims journal blocks while the translation footprint
// exceeds the cap: the sealed block with the fewest live records (ties
// to the oldest) is the victim, its live records are re-appended at the
// log head in ascending group order, and the block is erased.
// Re-appending consumes space, so the loop stops on any pass that fails
// to shrink the footprint. The charges go into cost.
func (j *journal) maybeGC(cost *ftl.Cost) {
	if j.ppb <= 0 || j.maxPages <= 0 {
		return
	}
	for len(j.blocks)*j.ppb > j.maxPages {
		victim := j.pickVictim()
		if victim == nil {
			return
		}
		j.hookFire("journal.gc")
		j.stats.GCRuns++
		before := len(j.blocks)

		var gids []addr.GroupID
		for gid, rec := range j.groups {
			if rec.block == victim {
				gids = append(gids, gid)
			}
		}
		slices.Sort(gids)
		for _, gid := range gids {
			j.hookFire("journal.fold")
			j.put(gid, j.groups[gid].n, cost)
			j.stats.Folds++
		}
		if victim.live != 0 {
			panic(fmt.Sprintf("core: journal block %d still has %d live records after GC", victim.id, victim.live))
		}
		j.blocks = slices.DeleteFunc(j.blocks, func(b *jblock) bool { return b == victim })
		if len(j.blocks) >= before {
			return // re-appends consumed as much as the erase freed
		}
	}
}

// pickVictim scores sealed blocks by live-record count — the journal's
// analogue of the data path's valid-count policy — preferring the oldest
// on ties.
func (j *journal) pickVictim() *jblock {
	var victim *jblock
	for _, b := range j.blocks {
		if !b.sealed {
			continue
		}
		if victim == nil || b.live < victim.live || (b.live == victim.live && b.id < victim.id) {
			victim = b
		}
	}
	return victim
}

// check audits the journal: per-block liveness must match the records,
// and the footprint must respect the configured cap (one open block of
// slack: GC cannot run below block granularity). The pager checks the
// records themselves.
func (j *journal) check() error {
	liveByBlock := make(map[*jblock]int)
	for _, rec := range j.groups {
		if rec.block != nil {
			liveByBlock[rec.block]++
		}
	}
	for _, b := range j.blocks {
		if b.live != liveByBlock[b] {
			return fmt.Errorf("journal: block %d live counter %d, records say %d", b.id, b.live, liveByBlock[b])
		}
		delete(liveByBlock, b)
	}
	if len(liveByBlock) != 0 {
		return fmt.Errorf("journal: live records in %d erased blocks", len(liveByBlock))
	}
	if j.ppb > 0 && j.maxPages > 0 && j.pages() > j.maxPages+j.ppb {
		return fmt.Errorf("journal: %d translation pages exceed the %d-page cap", j.pages(), j.maxPages)
	}
	return nil
}
