package core

import (
	"leaftl/internal/addr"
)

// crb is one group's Conflict Resolution Buffer (paper §3.4, Figure 9):
// for every *approximate* segment in the group it stores the exact LPA
// offsets the segment indexes, because approximate segments are learned
// from irregular patterns and their member LPAs cannot be inferred from
// (S, L, K, I).
//
// Invariants, mirroring the paper's three properties:
//  1. the LPAs of one segment are stored contiguously (one entry);
//  2. entries are sorted by their starting LPA, which is unique;
//  3. an LPA appears at most once across the whole buffer.
//
// Conceptually this is the paper's flat nearly-sorted byte list with null
// separators; the entry slice here is the same data with the separators
// made structural. SizeBytes reports the flat encoding's footprint (one
// byte per LPA plus one separator per segment) so memory accounting
// matches the paper's (Figure 10).
type crb struct {
	entries []crbEntry
	// bytes is the flat-encoding footprint (one byte per stored LPA plus a
	// separator per entry), maintained incrementally so sizeBytes is O(1).
	bytes int
	// owner is a direct-mapped acceleration index: owner[o] is the start
	// offset of the entry containing o, or ownerNone. It turns the lookup
	// path's candidate scan into one array read. Allocated on first use so
	// groups without approximate segments pay nothing; like the entry
	// slices it is controller working state, not part of the paper's flat
	// CRB footprint (sizeBytes).
	owner []uint16
	// free recycles the backing arrays of removed entries into new ones,
	// so steady-state overwrite churn allocates nothing.
	free [][]uint8
	// pool backs the entries a rebuild installs (add). A rebuild empties
	// the buffer first (reset) and then rewrites the pool in place, so
	// entries carved from it never reach the free list.
	pool []uint8
}

// newEntryBuf returns a zero-length buffer with capacity for n offsets,
// reusing a freed entry's backing array when one fits.
func (c *crb) newEntryBuf(n int) []uint8 {
	for i := len(c.free) - 1; i >= 0; i-- {
		if cap(c.free[i]) >= n {
			buf := c.free[i][:0]
			c.free[i] = c.free[len(c.free)-1]
			c.free = c.free[:len(c.free)-1]
			return buf
		}
	}
	if n < 16 {
		n = 16
	}
	return make([]uint8, 0, n)
}

// releaseEntryBuf returns an emptied entry's backing array to the free
// list, unless the array is the pool's.
func (c *crb) releaseEntryBuf(e *crbEntry) {
	if e.pooled || cap(e.lpas) == 0 || len(c.free) >= 8 {
		return
	}
	c.free = append(c.free, e.lpas[:0])
}

const ownerNone = 0xFFFF

func (c *crb) setOwner(o uint8, start uint16) {
	if c.owner == nil {
		c.owner = make([]uint16, addr.GroupSize)
		for i := range c.owner {
			c.owner[i] = ownerNone
		}
	}
	c.owner[o] = start
}

// reown records that every LPA of entry e is owned by start.
func (c *crb) reown(e *crbEntry, start uint16) {
	for _, o := range e.lpas {
		c.setOwner(o, start)
	}
}

// crbEntry lists one approximate segment's LPA offsets, sorted ascending.
// The first offset is the segment's current starting LPA.
type crbEntry struct {
	lpas   []uint8
	pooled bool // lpas lies in the crb's pool
}

func (e *crbEntry) start() uint8 { return e.lpas[0] }
func (e *crbEntry) last() uint8  { return e.lpas[len(e.lpas)-1] }

// boundaryEdit reports that the approximate segment previously starting at
// Old now spans [NewStart, NewLast]; Removed means it lost every LPA and
// must be dropped from the mapping table.
type boundaryEdit struct {
	Old      uint8
	NewStart uint8
	NewLast  uint8
	Removed  bool
}

// insert registers a new approximate segment's LPA offsets. Per the
// paper's redundancy rule, any of these offsets already present under
// another segment are removed from that segment first; entries that lose
// their first LPA get a new start (the paper's "update the S of the old
// segment with the adjacent LPA"), and entries that lose everything are
// deleted. The returned edits let the table re-shape the affected
// segments.
//
// Production code calls insertMarked directly with the table's shared
// mark array; this wrapper exists for tests and as the readable
// statement of the operation's contract.
func (c *crb) insert(lpas []uint8) []boundaryEdit {
	var mark [addr.GroupSize]uint64
	for _, o := range lpas {
		mark[o] = 1
	}
	return c.insertMarked(lpas, &mark, 1, nil)
}

// insertMarked is insert with the membership set passed as a
// generation-stamped mark array (mark[o] == gen ⇔ o ∈ lpas) and the edit
// list appended into a caller-owned buffer — the allocation-free form the
// table's mutation path uses.
func (c *crb) insertMarked(lpas []uint8, mark *[addr.GroupSize]uint64, gen uint64, edits []boundaryEdit) []boundaryEdit {
	kept := c.entries[:0]
	for i := range c.entries {
		e := &c.entries[i]
		oldStart, oldLast := e.start(), e.last()
		overlapped := false
		for _, o := range e.lpas {
			if mark[o] == gen {
				overlapped = true
				break
			}
		}
		if !overlapped {
			kept = append(kept, *e)
			continue
		}
		filtered := e.lpas[:0]
		for _, o := range e.lpas {
			if mark[o] != gen {
				filtered = append(filtered, o)
			}
		}
		c.bytes -= len(e.lpas) - len(filtered)
		if len(filtered) == 0 {
			c.bytes-- // the entry's separator goes too
			c.releaseEntryBuf(e)
			edits = append(edits, boundaryEdit{Old: oldStart, Removed: true})
			continue
		}
		e.lpas = filtered
		if e.start() != oldStart || e.last() != oldLast {
			edits = append(edits, boundaryEdit{Old: oldStart, NewStart: e.start(), NewLast: e.last()})
			if e.start() != oldStart {
				c.reown(e, uint16(e.start()))
			}
		}
		kept = append(kept, *e)
	}
	c.entries = kept

	c.entries = append(c.entries, crbEntry{lpas: append(c.newEntryBuf(len(lpas)), lpas...)})
	c.bytes += len(lpas) + 1
	// The new entry owns its LPAs, including any just evicted from older
	// entries.
	for _, o := range lpas {
		c.setOwner(o, uint16(lpas[0]))
	}
	// Dedup can raise an entry's start past a later entry's start (entry
	// ranges may interleave even though LPA sets are disjoint), so restore
	// the sorted-by-start invariant explicitly.
	c.normalize()
	return edits
}

// normalize re-sorts entries by their (unique) starting LPA. Entries are
// nearly sorted (one insert or one raised start at a time), so an
// insertion sort is O(n) here and, unlike sort.Slice, allocation-free.
func (c *crb) normalize() {
	for i := 1; i < len(c.entries); i++ {
		for j := i; j > 0 && c.entries[j].start() < c.entries[j-1].start(); j-- {
			c.entries[j], c.entries[j-1] = c.entries[j-1], c.entries[j]
		}
	}
}

// searchStart returns the index of the first entry whose start is ≥ off.
func (c *crb) searchStart(off uint8) int {
	lo, hi := 0, len(c.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.entries[mid].start() < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the starting LPA offset of the approximate segment that
// indexes off, if any. The paper's flat layout binary-searches to the LPA
// and scans left to the segment head (Figure 9 (b)); the owner index
// answers the same question with one array read.
func (c *crb) lookup(off uint8) (start uint8, ok bool) {
	if c.owner == nil {
		return 0, false
	}
	ow := c.owner[off]
	if ow == ownerNone {
		return 0, false
	}
	return uint8(ow), true
}

// entryFor returns the entry whose start equals off, or nil.
func (c *crb) entryFor(start uint8) *crbEntry {
	i := c.searchStart(start)
	if i < len(c.entries) && c.entries[i].start() == start {
		return &c.entries[i]
	}
	return nil
}

// removeMarked deletes the offsets marked in a generation-stamped mark
// array (mark[o] == gen) from the segment entry starting at start (used
// when a merge trims a victim, Algorithm 2 line 24-25), maintaining the
// size counter, the owner index and the sort invariant. It returns the
// resulting boundary edit.
func (c *crb) removeMarked(start uint8, mark *[addr.GroupSize]uint64, gen uint64) (boundaryEdit, bool) {
	i := c.searchStart(start)
	if i >= len(c.entries) || c.entries[i].start() != start {
		return boundaryEdit{}, false
	}
	e := &c.entries[i]
	oldStart, oldLast := e.start(), e.last()
	filtered := e.lpas[:0]
	for _, o := range e.lpas {
		if mark[o] == gen {
			c.setOwner(o, ownerNone)
		} else {
			filtered = append(filtered, o)
		}
	}
	c.bytes -= len(e.lpas) - len(filtered)
	if len(filtered) == 0 {
		c.bytes--
		c.releaseEntryBuf(e)
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
		return boundaryEdit{Old: oldStart, Removed: true}, true
	}
	e.lpas = filtered
	ns, nl := e.start(), e.last()
	if ns != oldStart {
		c.reown(e, uint16(ns))
		c.normalize()
	}
	if ns != oldStart || nl != oldLast {
		return boundaryEdit{Old: oldStart, NewStart: ns, NewLast: nl}, true
	}
	return boundaryEdit{Old: oldStart, NewStart: oldStart, NewLast: nl}, true
}

// reset empties the buffer ahead of a whole-group rebuild, keeping the
// entry slice, the owner index and the pool for reuse.
func (c *crb) reset() {
	c.entries = c.entries[:0]
	c.bytes = 0
	for i := range c.owner {
		c.owner[i] = ownerNone
	}
	c.pool = c.pool[:0]
}

// add appends an entry that owns a copy of lpas, carved from the pool
// (lpas sorted, sharing no offset with any other entry, and starting
// past every entry already present).
func (c *crb) add(lpas []uint8) {
	n := len(c.pool)
	c.pool = append(c.pool, lpas...)
	c.entries = append(c.entries, crbEntry{lpas: c.pool[n:len(c.pool):len(c.pool)], pooled: true})
	c.bytes += len(lpas) + 1
	c.reown(&c.entries[len(c.entries)-1], uint16(lpas[0]))
}

// sizeBytes is the flat encoding footprint: one byte per stored LPA plus a
// one-byte null separator per segment (paper §3.4). Maintained
// incrementally; O(1).
func (c *crb) sizeBytes() int { return c.bytes }

// recompute rebuilds the size counter and the owner index from the
// entries (group-record decode path).
func (c *crb) recompute() {
	c.bytes = 0
	c.owner = nil
	for i := range c.entries {
		e := &c.entries[i]
		c.bytes += len(e.lpas) + 1
		c.reown(e, uint16(e.start()))
	}
}
