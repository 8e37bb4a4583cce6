package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// Log-structured metadata persistence (the mapping-delta journal): instead
// of rewriting a group's full translation-page image on every dirty
// eviction, the pager appends a delta record carrying only the sections
// that changed since the group's last full image — the 32-byte exact
// bitmap, individual segment levels, the CRB — packed back to back
// into translation pages. A group's durable state is its base image plus
// its delta chain; demand loads replay the chain onto the base, and full
// images are materialized only when a chain exceeds the length/byte
// thresholds below or when journal GC folds a victim block's live groups
// into fresh images at the log head.
//
// Translation blocks are a dedicated allocation stream: records never
// span blocks (the open block seals early when a record would not fit),
// and the journal reclaims its own blocks with a victim policy scored by
// live-record count rather than the data path's valid-page count. The
// open tail page is held in capacitor-backed controller SRAM, so appends
// are durable the moment they land and only *filled* pages are charged
// as flash programs.
//
// Delta record wire format (little-endian, behind a magic and version
// header):
//
//	"LFTL" | version u8 (=6) | gid u32 | seq u16 | flags u8
//	flags&flagExact:  exact bitmap (32 bytes)
//	flags&flagLevels: newLevelCount u16 | nChanged u16,
//	                  then per changed level (ascending index):
//	                  idx u16 | nsegs u16 | 8-byte segments
//	flags&flagCRB:    byteLen u16 | CRB section (count u16, entries)
//	flags&flagFull:   a complete group record (all other flags clear)
//
// seq is the record's position in the group's chain (the base image is
// seq 0); replay rejects gaps, so a truncated or reordered chain is
// detected rather than silently folded. Version 6 shrank the first
// section from version 4's 47-byte tuning block to the bare bitmap, in
// step with the group record; version-4 records are rejected.

const (
	journalMagic   = "LFTL"
	journalVersion = 6

	flagExact  = 1 << 0
	flagLevels = 1 << 1
	flagCRB    = 1 << 2
	flagFull   = 1 << 3
	flagsAll   = flagExact | flagLevels | flagCRB | flagFull

	// journalMaxChain and journalMaxChainBytes bound a group's delta
	// chain before a writeback folds it into a fresh full image: chains
	// longer than this make demand loads touch too many pages, and
	// chains heavier than a flash page stop paying for themselves.
	journalMaxChain      = 8
	journalMaxChainBytes = 4096

	// journalPageIDBit tags journal translation-page identities so they
	// never collide with the pager's image PPAs when the device routes
	// meta operations to dies.
	journalPageIDBit = uint64(1) << 62
)

// recSections splits a group record into the independently-diffable
// sections the delta encoder works over. Slices alias the source record.
type recSections struct {
	gid    addr.GroupID
	exact  []byte   // predicted-exact bitmap, exactBitmapBytes long
	levels [][]byte // per level: nsegs u16 | 8-byte segments
	crb    []byte   // entry count u16 | entries (len u8, offsets…)
}

// parseRecSections dissects a group record (MarshalGroup's output)
// into sections without decoding segments.
func parseRecSections(img []byte) (recSections, error) {
	var s recSections
	r := reader{buf: img}
	gid, err := r.u32()
	if err != nil {
		return s, err
	}
	if gid >= 1<<24 {
		return s, fmt.Errorf("core: group id %d implausible", gid)
	}
	s.gid = addr.GroupID(gid)
	if s.exact, err = r.bytes(exactBitmapBytes); err != nil {
		return s, err
	}
	nLevels, err := r.u16()
	if err != nil {
		return s, err
	}
	for l := uint16(0); l < nLevels; l++ {
		start := r.off
		nSegs, err := r.u16()
		if err != nil {
			return s, err
		}
		if _, err := r.bytes(int(nSegs) * SegmentBytes); err != nil {
			return s, err
		}
		s.levels = append(s.levels, img[start:r.off])
	}
	crbStart := r.off
	if err := skipCRBSection(&r); err != nil {
		return s, err
	}
	s.crb = img[crbStart:r.off]
	if r.off != len(img) {
		return s, fmt.Errorf("core: %d trailing bytes in group record", len(img)-r.off)
	}
	return s, nil
}

// skipCRBSection walks a CRB section (count + entries), validating its
// framing without materializing entries.
func skipCRBSection(r *reader) error {
	nEntries, err := r.u16()
	if err != nil {
		return err
	}
	for e := uint16(0); e < nEntries; e++ {
		n, err := r.u8()
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("core: empty CRB entry in record")
		}
		if _, err := r.bytes(int(n)); err != nil {
			return err
		}
	}
	return nil
}

// serialize reassembles the sections into the exact group record they
// were parsed from (parse ∘ serialize is the identity the journal's
// consistency audit pins).
func (s recSections) serialize() []byte {
	n := 4 + len(s.exact) + 2 + len(s.crb)
	for _, l := range s.levels {
		n += len(l)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.gid))
	buf = append(buf, s.exact...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.levels)))
	for _, l := range s.levels {
		buf = append(buf, l...)
	}
	buf = append(buf, s.crb...)
	return buf
}

// encodeDelta builds the delta record transforming base into cur, or
// nil when the two serialize identically. seq is the record's chain
// position.
func encodeDelta(base, cur recSections, seq uint16) []byte {
	var flags uint8
	if !bytes.Equal(base.exact, cur.exact) {
		flags |= flagExact
	}
	var changed []int
	for i, l := range cur.levels {
		if i >= len(base.levels) || !bytes.Equal(base.levels[i], l) {
			changed = append(changed, i)
		}
	}
	if len(changed) > 0 || len(cur.levels) != len(base.levels) {
		flags |= flagLevels
	}
	if !bytes.Equal(base.crb, cur.crb) {
		flags |= flagCRB
	}
	if flags == 0 {
		return nil
	}

	buf := appendJournalHeader(nil)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cur.gid))
	buf = binary.LittleEndian.AppendUint16(buf, seq)
	buf = append(buf, flags)
	if flags&flagExact != 0 {
		buf = append(buf, cur.exact...)
	}
	if flags&flagLevels != 0 {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cur.levels)))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(changed)))
		for _, i := range changed {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(i))
			buf = append(buf, cur.levels[i]...)
		}
	}
	if flags&flagCRB != 0 {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cur.crb)))
		buf = append(buf, cur.crb...)
	}
	return buf
}

// appendJournalHeader writes the record framing: the magic plus the
// version byte.
func appendJournalHeader(buf []byte) []byte {
	buf = append(buf, journalMagic...)
	return append(buf, journalVersion)
}

// readJournalHeader consumes the record framing, rejecting a wrong magic
// and any version but journalVersion.
func readJournalHeader(r *reader) error {
	magic, err := r.bytes(len(journalMagic))
	if err != nil || string(magic) != journalMagic {
		return fmt.Errorf("core: bad journal record magic")
	}
	ver, err := r.u8()
	if err != nil || ver != journalVersion {
		return fmt.Errorf("core: unsupported journal record version %d", ver)
	}
	return nil
}

// encodeFull frames a complete group record as a full-image journal
// record (chain position 0: a fresh base).
func encodeFull(img []byte, gid addr.GroupID) []byte {
	buf := appendJournalHeader(nil)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(gid))
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = append(buf, flagFull)
	return append(buf, img...)
}

// decodeJournalRecord parses a journal record's frame, returning its group,
// chain position, flags and section payload cursor.
func decodeJournalRecord(rec []byte) (gid addr.GroupID, seq uint16, flags uint8, r reader, err error) {
	r = reader{buf: rec}
	if err = readJournalHeader(&r); err != nil {
		return 0, 0, 0, r, err
	}
	g, err := r.u32()
	if err != nil {
		return 0, 0, 0, r, err
	}
	if g >= 1<<24 {
		return 0, 0, 0, r, fmt.Errorf("core: journal record group id %d implausible", g)
	}
	if seq, err = r.u16(); err != nil {
		return 0, 0, 0, r, err
	}
	if flags, err = r.u8(); err != nil {
		return 0, 0, 0, r, err
	}
	if flags == 0 || flags&^uint8(flagsAll) != 0 {
		return 0, 0, 0, r, fmt.Errorf("core: journal record flags %#x invalid", flags)
	}
	if flags&flagFull != 0 && flags != flagFull {
		return 0, 0, 0, r, fmt.Errorf("core: full-image journal record carries section flags %#x", flags)
	}
	return addr.GroupID(g), seq, flags, r, nil
}

// applyDelta replays one journal record onto cur, returning the successor
// sections. wantSeq is the expected chain position; a gap means the
// chain is corrupt. A full-image record replaces cur outright and is
// legal only at wantSeq 0, as a base; a delta is legal only after one.
func applyDelta(cur recSections, rec []byte, wantSeq uint16) (recSections, error) {
	gid, seq, flags, r, err := decodeJournalRecord(rec)
	if err != nil {
		return recSections{}, err
	}
	if seq != wantSeq {
		return recSections{}, fmt.Errorf("core: journal record seq %d, want %d (chain gap)", seq, wantSeq)
	}
	if flags == flagFull {
		if wantSeq != 0 {
			return recSections{}, fmt.Errorf("core: full-image record mid-chain (seq %d)", seq)
		}
		out, err := parseRecSections(r.buf[r.off:])
		if err != nil {
			return recSections{}, err
		}
		if out.gid != gid {
			return recSections{}, fmt.Errorf("core: journal frame group %d wraps image of group %d", gid, out.gid)
		}
		return out, nil
	}
	if wantSeq == 0 {
		return recSections{}, fmt.Errorf("core: delta record at chain position 0 (a base must be a full image)")
	}
	if gid != cur.gid {
		return recSections{}, fmt.Errorf("core: journal record for group %d applied to group %d", gid, cur.gid)
	}

	out := recSections{gid: cur.gid, exact: cur.exact, crb: cur.crb}
	out.levels = append([][]byte(nil), cur.levels...)
	if flags&flagExact != 0 {
		if out.exact, err = r.bytes(exactBitmapBytes); err != nil {
			return recSections{}, err
		}
	}
	if flags&flagLevels != 0 {
		newCount, err := r.u16()
		if err != nil {
			return recSections{}, err
		}
		nChanged, err := r.u16()
		if err != nil {
			return recSections{}, err
		}
		if int(nChanged) > int(newCount) {
			return recSections{}, fmt.Errorf("core: journal record changes %d of %d levels", nChanged, newCount)
		}
		levels := make([][]byte, newCount)
		copy(levels, out.levels) // levels past newCount simply fall away
		last := -1
		for c := uint16(0); c < nChanged; c++ {
			idx, err := r.u16()
			if err != nil {
				return recSections{}, err
			}
			if int(idx) >= int(newCount) || int(idx) <= last {
				return recSections{}, fmt.Errorf("core: journal level index %d out of order or range", idx)
			}
			last = int(idx)
			start := r.off
			nSegs, err := r.u16()
			if err != nil {
				return recSections{}, err
			}
			if _, err := r.bytes(int(nSegs) * SegmentBytes); err != nil {
				return recSections{}, err
			}
			levels[idx] = r.buf[start:r.off]
		}
		for i, l := range levels {
			if l == nil {
				return recSections{}, fmt.Errorf("core: journal record grows to %d levels but level %d has no bytes", newCount, i)
			}
		}
		out.levels = levels
	}
	if flags&flagCRB != 0 {
		n, err := r.u16()
		if err != nil {
			return recSections{}, err
		}
		raw, err := r.bytes(int(n))
		if err != nil {
			return recSections{}, err
		}
		cr := reader{buf: raw}
		if err := skipCRBSection(&cr); err != nil {
			return recSections{}, err
		}
		if cr.off != len(raw) {
			return recSections{}, fmt.Errorf("core: %d trailing bytes in journal CRB section", len(raw)-cr.off)
		}
		out.crb = raw
	}
	if r.off != len(r.buf) {
		return recSections{}, fmt.Errorf("core: %d trailing bytes in journal record", len(r.buf)-r.off)
	}
	return out, nil
}

// jrec is one appended journal record and where it landed.
type jrec struct {
	bytes []byte
	block int    // block id, -1 when the block stream is unconfigured
	first uint64 // page-sequence span; last may be the open SRAM page
	last  uint64
}

// jgroup is one group's durable journal state: its base image record,
// delta chain, and the folded current image the two reproduce.
type jgroup struct {
	base   jrec
	chain  []jrec
	curImg []byte      // serialize(cur): the group's current record
	cur    recSections // parsed curImg
}

// jblock is one translation block of the journal's allocation stream.
type jblock struct {
	id     int
	gids   map[addr.GroupID]int // live record count per group
	live   int                  // Σ gids
	used   int                  // bytes appended into this block
	sealed bool
}

// journal is the pager-owned mapping-delta log. Not safe for concurrent
// use; the owning Pager's callers serialize access.
type journal struct {
	pageSize int
	ppb      int // pages per translation block; 0 = single unbounded stream
	maxPages int // translation-footprint cap driving GC; 0 = uncapped

	groups map[addr.GroupID]*jgroup
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
		groups:   make(map[addr.GroupID]*jgroup),
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
	for _, g := range j.groups {
		if len(g.chain) > s.MaxChain {
			s.MaxChain = len(g.chain)
		}
	}
	return s
}

func (j *journal) has(gid addr.GroupID) bool { return j.groups[gid] != nil }

// openBlock returns the unsealed head block, allocating one if needed.
func (j *journal) openBlock() *jblock {
	if n := len(j.blocks); n > 0 && !j.blocks[n-1].sealed {
		return j.blocks[n-1]
	}
	b := &jblock{id: j.nextID, gids: make(map[addr.GroupID]int)}
	j.nextID++
	j.blocks = append(j.blocks, b)
	return b
}

// sealOpen closes the head block early: the partial SRAM tail page is
// flushed (and charged, when charging) since its block is now immutable.
func (j *journal) sealOpen(charge bool) ftl.Cost {
	var cost ftl.Cost
	n := len(j.blocks)
	if n == 0 || j.blocks[n-1].sealed {
		return cost
	}
	b := j.blocks[n-1]
	if j.pageFill > 0 {
		if charge {
			cost.AddWrite(journalPageIDBit | j.pageSeq)
		}
		j.pageSeq++
		j.pageFill = 0
	}
	b.sealed = true
	return cost
}

// appendRec packs rec into the log, charging one MetaWrite per page
// filled (the open tail page is capacitor-backed SRAM and costs nothing
// until full). Records never span blocks: the open block seals early
// when rec would not fit. charge=false seeds recovery state whose pages
// already exist on flash.
func (j *journal) appendRec(gid addr.GroupID, rec []byte, charge bool) (jrec, ftl.Cost) {
	var cost ftl.Cost
	blockID := -1
	if j.ppb > 0 {
		capacity := j.ppb * j.pageSize
		if len(rec) > capacity {
			panic(fmt.Sprintf("core: %dB journal record exceeds a %dB translation block", len(rec), capacity))
		}
		b := j.openBlock()
		if b.used+len(rec) > capacity {
			cost.Add(j.sealOpen(charge))
			b = j.openBlock()
		}
		b.used += len(rec)
		b.gids[gid]++
		b.live++
		blockID = b.id
	}
	meta := jrec{bytes: rec, block: blockID, first: j.pageSeq}
	for remaining := len(rec); remaining > 0; {
		n := j.pageSize - j.pageFill
		if n > remaining {
			n = remaining
		}
		j.pageFill += n
		remaining -= n
		if j.pageFill == j.pageSize {
			if charge {
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
	if j.ppb > 0 {
		b := j.blocks[len(j.blocks)-1]
		if b.used == j.ppb*j.pageSize {
			b.sealed = true
		}
	}
	return meta, cost
}

// supersede drops the liveness of every record a fold replaced.
func (j *journal) supersede(gid addr.GroupID, g *jgroup) {
	drop := func(rec jrec) {
		if rec.block < 0 {
			return
		}
		for _, b := range j.blocks {
			if b.id == rec.block {
				b.gids[gid]--
				b.live--
				if b.gids[gid] == 0 {
					delete(b.gids, gid)
				}
				return
			}
		}
	}
	drop(g.base)
	for _, rec := range g.chain {
		drop(rec)
	}
}

// writeback logs a group's new state: a delta against its current image
// when one pays, a fresh full image otherwise (new group, oversized
// delta, or a chain past the fold thresholds). A byte-identical image
// costs nothing. Returns the flash charges, including any journal GC the
// append triggered.
func (j *journal) writeback(gid addr.GroupID, img []byte) ftl.Cost {
	sec, err := parseRecSections(img)
	if err != nil {
		panic(fmt.Sprintf("core: group %d image does not parse: %v", gid, err))
	}
	if sec.gid != gid {
		panic(fmt.Sprintf("core: group %d image claims group %d", gid, sec.gid))
	}
	var cost ftl.Cost
	g := j.groups[gid]
	if g != nil && bytes.Equal(g.curImg, img) {
		return cost // clean rewrite: the journal already holds this state
	}

	var delta []byte
	if g != nil {
		delta = encodeDelta(g.cur, sec, uint16(len(g.chain))+1)
	}
	chainBytes := 0
	if g != nil {
		for _, rec := range g.chain {
			chainBytes += len(rec.bytes)
		}
	}
	switch {
	case g == nil:
		rec, c := j.appendRec(gid, encodeFull(img, gid), true)
		cost.Add(c)
		j.groups[gid] = &jgroup{base: rec, curImg: img, cur: sec}
		j.stats.Bases++
	case delta == nil:
		// Sections serialize identically yet the images differ — cannot
		// happen while serialize inverts parse; fold defensively.
		fallthrough
	case len(g.chain) >= journalMaxChain,
		chainBytes+len(delta) > journalMaxChainBytes,
		len(delta) >= len(img):
		j.hookFire("journal.fold")
		cost.Add(j.fold(gid, g, img, sec))
	default:
		rec, c := j.appendRec(gid, delta, true)
		cost.Add(c)
		g.chain = append(g.chain, rec)
		g.curImg = img
		g.cur = sec
		j.stats.Appends++
	}
	cost.Add(j.maybeGC())
	return cost
}

// fold collapses a group's base+chain into a fresh full image at the log
// head and retires the old records.
func (j *journal) fold(gid addr.GroupID, g *jgroup, img []byte, sec recSections) ftl.Cost {
	j.supersede(gid, g)
	j.stats.Replays += uint64(len(g.chain))
	rec, cost := j.appendRec(gid, encodeFull(img, gid), true)
	g.base = rec
	g.chain = nil
	g.curImg = img
	g.cur = sec
	j.stats.Folds++
	j.stats.Bases++
	return cost
}

// load returns a group's current image and the flash reads replaying it
// costs: every distinct charged page under the base and chain records
// (the open SRAM tail is free).
func (j *journal) load(gid addr.GroupID) ([]byte, ftl.Cost) {
	g := j.groups[gid]
	if g == nil {
		panic(fmt.Sprintf("core: journal load of unknown group %d", gid))
	}
	// The base and at most journalMaxChain records span a handful of
	// pages, so a repeated page is found in the IDs charged so far.
	var cost ftl.Cost
	charge := func(rec jrec) {
		for p := rec.first; p <= rec.last; p++ {
			if p >= j.pageSeq {
				continue // open SRAM tail page: free to read
			}
			if id := journalPageIDBit | p; !slices.Contains(cost.ReadIDs, id) {
				cost.AddRead(id)
			}
		}
	}
	charge(g.base)
	for _, rec := range g.chain {
		charge(rec)
	}
	j.stats.Replays += uint64(len(g.chain))
	return g.curImg, cost
}

// seed registers a group restored during recovery: its image already
// lives on flash, so the append is uncharged.
func (j *journal) seed(gid addr.GroupID, img []byte) error {
	if j.groups[gid] != nil {
		return fmt.Errorf("core: group %d already journaled", gid)
	}
	sec, err := parseRecSections(img)
	if err != nil {
		return fmt.Errorf("core: group %d restore image: %w", gid, err)
	}
	if sec.gid != gid {
		return fmt.Errorf("core: group %d restore image claims group %d", gid, sec.gid)
	}
	rec, _ := j.appendRec(gid, encodeFull(img, gid), false)
	j.groups[gid] = &jgroup{base: rec, curImg: img, cur: sec}
	j.stats.Bases++
	return nil
}

// images returns every journaled group's folded current image, skipping
// groups the caller holds newer state for (dirty residents). Each
// returned group's chain counts as replayed — this is the recovery
// tail-replay path.
func (j *journal) images(skip func(addr.GroupID) bool) map[addr.GroupID][]byte {
	out := make(map[addr.GroupID][]byte, len(j.groups))
	for gid, g := range j.groups {
		if skip != nil && skip(gid) {
			continue
		}
		out[gid] = g.curImg
		j.stats.Replays += uint64(len(g.chain))
	}
	return out
}

// maybeGC reclaims journal blocks while the translation footprint
// exceeds the cap: the sealed block with the fewest live records (ties
// to the oldest) is the victim, its live groups fold to fresh images at
// the log head, and the block is erased. Folding appends, so the loop
// stops on any pass that fails to shrink the footprint.
func (j *journal) maybeGC() ftl.Cost {
	var cost ftl.Cost
	if j.ppb <= 0 || j.maxPages <= 0 {
		return cost
	}
	for len(j.blocks)*j.ppb > j.maxPages {
		victim := j.pickVictim()
		if victim == nil {
			return cost
		}
		j.hookFire("journal.gc")
		j.stats.GCRuns++
		before := len(j.blocks)

		gids := make([]addr.GroupID, 0, len(victim.gids))
		for gid := range victim.gids {
			gids = append(gids, gid)
		}
		sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
		for _, gid := range gids {
			g := j.groups[gid]
			j.hookFire("journal.fold")
			cost.Add(j.fold(gid, g, g.curImg, g.cur))
		}
		if victim.live != 0 {
			panic(fmt.Sprintf("core: journal block %d still has %d live records after folding", victim.id, victim.live))
		}
		for i, b := range j.blocks {
			if b == victim {
				j.blocks = append(j.blocks[:i], j.blocks[i+1:]...)
				break
			}
		}
		if len(j.blocks) >= before {
			return cost // folds consumed as much as the erase freed
		}
	}
	return cost
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

// check audits the journal: every group's base+chain must fold to its
// cached current image with contiguous sequence numbers, per-block
// liveness must match the records, and the footprint must respect the
// configured cap (one open block of slack: GC cannot run below
// block granularity).
func (j *journal) check() error {
	liveByBlock := make(map[int]map[addr.GroupID]int)
	for gid, g := range j.groups {
		folded, err := applyDelta(recSections{}, g.base.bytes, 0)
		if err != nil {
			return fmt.Errorf("journal: group %d base: %w", gid, err)
		}
		for i, rec := range g.chain {
			if folded, err = applyDelta(folded, rec.bytes, uint16(i)+1); err != nil {
				return fmt.Errorf("journal: group %d delta %d: %w", gid, i, err)
			}
		}
		if !bytes.Equal(folded.serialize(), g.curImg) {
			return fmt.Errorf("journal: group %d chain does not fold to its cached image", gid)
		}
		if !bytes.Equal(g.cur.serialize(), g.curImg) {
			return fmt.Errorf("journal: group %d cached sections diverge from cached image", gid)
		}
		note := func(rec jrec) {
			if rec.block < 0 {
				return
			}
			m := liveByBlock[rec.block]
			if m == nil {
				m = make(map[addr.GroupID]int)
				liveByBlock[rec.block] = m
			}
			m[gid]++
		}
		note(g.base)
		for _, rec := range g.chain {
			note(rec)
		}
	}
	for _, b := range j.blocks {
		want := liveByBlock[b.id]
		if len(want) != len(b.gids) {
			return fmt.Errorf("journal: block %d tracks %d live groups, records say %d", b.id, len(b.gids), len(want))
		}
		live := 0
		for gid, n := range want {
			if b.gids[gid] != n {
				return fmt.Errorf("journal: block %d tracks %d live records of group %d, records say %d", b.id, b.gids[gid], gid, n)
			}
			live += n
		}
		if b.live != live {
			return fmt.Errorf("journal: block %d live counter %d, records say %d", b.id, b.live, live)
		}
		delete(liveByBlock, b.id)
	}
	if len(liveByBlock) != 0 {
		return fmt.Errorf("journal: %d live records in erased blocks", len(liveByBlock))
	}
	if j.ppb > 0 && j.maxPages > 0 && j.pages() > j.maxPages+j.ppb {
		return fmt.Errorf("journal: %d translation pages exceed the %d-page cap", j.pages(), j.maxPages)
	}
	return nil
}
