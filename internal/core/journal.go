package core

import (
	"fmt"
	"slices"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// Log-structured metadata persistence (the metadata journal, paper §3.8's
// translation blocks): the pager appends a group's whole current record
// — MarshalGroup's output, the one wire format (persist.go) — into the
// open translation page, packed back to back with other groups' records.
// A group has exactly one live record; each writeback supersedes the
// previous one, so a demand load reads only the pages that one record
// spans. The journal is only the translation-page allocator: the
// record's bytes and its placement (page span and translation block)
// live in the pager's GMD entry, and the journal keeps its blocks and
// what the appends and folds cost.
//
// Translation blocks are a dedicated allocation stream: records never
// span blocks (the open block seals early when a record would not fit),
// and the journal reclaims its own blocks with a victim policy scored by
// live-record count rather than the data path's valid-page count. The
// open tail page is held in capacitor-backed controller SRAM, so appends
// are durable the moment they land and only *filled* pages are charged
// as flash programs.

// journalPageIDBit tags journal translation-page identities. The device
// routes a page to die id mod channels, so consecutive pages of the log
// land on consecutive dies.
const journalPageIDBit = uint64(1) << 62

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
	ppb      int // pages per translation block; 0 until configure
	maxPages int // translation-footprint cap driving GC

	gmd    map[addr.GroupID]*gmdEntry // the pager's directory, which GC scans
	blocks []*jblock                  // allocation order; the last entry is the open head
	nextID int

	pageSeq  uint64 // sequence number of the open tail page
	pageFill int    // bytes in the open tail page (SRAM, uncharged)

	stats ftl.JournalStats
	hook  func(string)
}

func newJournal(pageSize int, gmd map[addr.GroupID]*gmdEntry) *journal {
	return &journal{pageSize: pageSize, gmd: gmd}
}

// configure sets the translation-block geometry and footprint cap. It is
// called once device-side wiring knows the flash geometry and the
// over-provisioning share granted to metadata, before any record is
// placed.
func (j *journal) configure(pagesPerBlock, maxPages int) {
	if pagesPerBlock < 1 || maxPages < 1 {
		panic(fmt.Sprintf("core: journal geometry %d pages per block, %d-page cap", pagesPerBlock, maxPages))
	}
	j.ppb, j.maxPages = pagesPerBlock, maxPages
}

func (j *journal) hookFire(point string) {
	if j.hook != nil {
		j.hook(point)
	}
}

// pages returns the translation-footprint in flash pages: whole blocks,
// since allocation is erase-unit granular.
func (j *journal) pages() int { return len(j.blocks) * j.ppb }

// tail returns the identity of the open SRAM tail page.
func (j *journal) tail() uint64 { return journalPageIDBit | j.pageSeq }

// Stats snapshots the counters plus current occupancy.
func (j *journal) Stats() ftl.JournalStats {
	s := j.stats
	s.Pages = j.pages()
	s.Blocks = len(j.blocks)
	for _, b := range j.blocks {
		s.Groups += b.live
	}
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
	if j.pageFill > 0 {
		if cost != nil {
			cost.AddWrite(j.tail())
		}
		j.pageSeq++
		j.pageFill = 0
	}
	j.blocks[n-1].sealed = true
}

// place appends e's record (len(e.image) bytes) into the log, retires
// the record it supersedes and points e at where the new one landed. It
// charges into cost one MetaWrite per page filled (the open tail page is
// capacitor-backed SRAM and costs nothing until full); a nil cost seeds
// recovery state whose pages already exist on flash. Records never span
// blocks: the open block seals early when the record would not fit.
func (j *journal) place(e *gmdEntry, cost *ftl.Cost) {
	if j.ppb == 0 {
		panic("core: journal record placed before ConfigureJournal")
	}
	n, capacity := len(e.image), j.ppb*j.pageSize
	if n > capacity {
		panic(fmt.Sprintf("core: %dB journal record exceeds a %dB translation block", n, capacity))
	}
	if e.block != nil {
		e.block.live--
	}
	b := j.openBlock()
	if b.used+n > capacity {
		j.sealOpen(cost)
		b = j.openBlock()
	}
	b.used += n
	b.live++
	e.block, e.first = b, j.tail()
	for remaining := n; remaining > 0; {
		k := min(j.pageSize-j.pageFill, remaining)
		j.pageFill += k
		remaining -= k
		if j.pageFill == j.pageSize {
			if cost != nil {
				cost.AddWrite(j.tail())
			}
			j.pageSeq++
			j.pageFill = 0
		}
	}
	e.last = j.tail()
	if j.pageFill == 0 && e.last > e.first {
		e.last--
	}
	if b.used == capacity {
		b.sealed = true
	}
}

// maybeGC reclaims journal blocks while the translation footprint
// exceeds the cap: the sealed block with the fewest live records (ties
// to the oldest) is the victim, its live records — found by scanning
// the GMD — are re-appended at the log head in ascending group order,
// and the block is erased. Re-appending consumes space, so the loop
// stops on any pass that fails to shrink the footprint. The charges go
// into cost.
func (j *journal) maybeGC(cost *ftl.Cost) {
	for j.pages() > j.maxPages {
		victim := j.pickVictim()
		if victim == nil {
			return
		}
		j.hookFire("journal.gc")
		j.stats.GCRuns++
		before := len(j.blocks)

		var gids []addr.GroupID
		for gid, e := range j.gmd {
			if e.block == victim {
				gids = append(gids, gid)
			}
		}
		slices.Sort(gids)
		for _, gid := range gids {
			j.hookFire("journal.fold")
			j.place(j.gmd[gid], cost)
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

// check audits the journal against live, the records per block that the
// GMD places: every block's live counter must match, no record may sit
// in an erased block, and the footprint must respect the configured cap
// (one open block of slack: GC cannot run below block granularity).
func (j *journal) check(live map[*jblock]int) error {
	erased := 0
	for _, n := range live {
		erased += n
	}
	for _, b := range j.blocks {
		if b.live != live[b] {
			return fmt.Errorf("journal: block %d live counter %d, the GMD places %d records there", b.id, b.live, live[b])
		}
		erased -= b.live
	}
	if erased != 0 {
		return fmt.Errorf("journal: %d live records in erased blocks", erased)
	}
	if j.pages() > j.maxPages+j.ppb {
		return fmt.Errorf("journal: %d translation pages exceed the %d-page cap", j.pages(), j.maxPages)
	}
	return nil
}
