package core

import (
	"encoding/binary"
	"fmt"

	"leaftl/internal/addr"
)

// The per-group wire record (paper §3.8): LeaFTL stores the learned index
// segments of each 256-LPA group in flash translation blocks, indexed by
// the global mapping directory (GMD). One record carries one group:
//
//	gid u32
//	levels u16
//	per level: segments u16, then 8-byte encoded segments
//	crb entries u16, then per entry: len u8, offsets…
//
// All integers are little-endian. The encoding is exactly the DRAM
// footprint the paper counts (8 bytes per segment plus CRB bytes) plus a
// small header. Whether the table verifies at learn time is a property
// of the table, not of the record, so the record has one shape either
// way and round-trips bit-identically through page-out and recovery.
// MarshalGroup/InstallGroup (pageable.go) speak this record;
// it is the translation-page payload the pager moves to and from flash,
// and the one record the metadata journal (journal.go) appends per
// writeback.

// appendGroupRecord serializes one group record.
func appendGroupRecord(buf []byte, id addr.GroupID, g *group) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(g.depth()))
	for li := 0; li < g.depth(); li++ {
		segs := g.level(li).segs
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(segs)))
		for i := range segs {
			enc := segs[i].Encode()
			buf = append(buf, enc[:]...)
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(g.crb.entries)))
	for _, e := range g.crb.entries {
		if len(e.lpas) > addr.GroupSize {
			return nil, fmt.Errorf("core: CRB entry with %d LPAs", len(e.lpas))
		}
		buf = append(buf, uint8(len(e.lpas)))
		buf = append(buf, e.lpas...)
	}
	return buf, nil
}

// decodeGroupRecord decodes a buffer holding exactly one per-group
// record.
func decodeGroupRecord(data []byte) (addr.GroupID, *group, error) {
	r := reader{buf: data}
	gid, g, err := readGroupRecord(&r)
	if err == nil && r.off != len(data) {
		err = fmt.Errorf("core: %d trailing bytes in group record", len(data)-r.off)
	}
	return gid, g, err
}

// readGroupRecord decodes one per-group record. It rejects a shape the
// table never builds and its lookup and rebuild assume: more levels than
// maxGroupLevels, a segment running past its group, or a level whose
// segments are not in strictly ascending, non-overlapping order. The
// levels are decoded straight into the group's one segment array, sized
// by a first pass over the level headers; the returned group's CRB is
// normalized (owner index rebuilt, entries sorted) so the group is ready
// to serve lookups.
func readGroupRecord(r *reader) (addr.GroupID, *group, error) {
	gid, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	// A 32-bit LPA space holds at most 2^24 groups of 256 pages;
	// validating keeps a corrupt record from forcing a huge dense-slice
	// allocation in the caller.
	if gid >= 1<<24 {
		return 0, nil, fmt.Errorf("core: group id %d implausible", gid)
	}
	g := &group{}
	nLevels, err := r.u16()
	if err != nil {
		return 0, nil, err
	}
	if nLevels > maxGroupLevels {
		return 0, nil, fmt.Errorf("core: group %d record has %d levels, bound %d", gid, nLevels, maxGroupLevels)
	}
	// The record lists levels top first; the array holds them deepest
	// first, so each level's window ends where the one above it starts.
	total, err := r.segmentTotal(int(nLevels))
	if err != nil {
		return 0, nil, err
	}
	if nLevels > 0 {
		g.ends = make([]int32, nLevels, maxGroupLevels+1)
	}
	g.reset(total)
	end := total
	for l := uint16(0); l < nLevels; l++ {
		nSegs, _ := r.u16() // segmentTotal checked every header
		g.ends[int(nLevels)-1-int(l)] = int32(end)
		lvl := g.segs[end-int(nSegs) : end]
		end -= int(nSegs)
		for s := uint16(0); s < nSegs; s++ {
			raw, err := r.bytes(SegmentBytes)
			if err != nil {
				return 0, nil, err
			}
			var enc [SegmentBytes]byte
			copy(enc[:], raw)
			seg := DecodeSegment(enc, addr.GroupID(gid))
			switch {
			case int(seg.Start())+int(seg.L) >= addr.GroupSize:
				return 0, nil, fmt.Errorf("core: group %d level %d: segment %v runs past its group", gid, l, seg)
			case s > 0 && lvl[s-1].End() >= seg.SLPA:
				return 0, nil, fmt.Errorf("core: group %d level %d: segment %v does not follow %v", gid, l, seg, lvl[s-1])
			}
			lvl[s] = seg
			g.keys[end+int(s)] = seg.Start()
		}
	}
	nEntries, err := r.u16()
	if err != nil {
		return 0, nil, err
	}
	for e := uint16(0); e < nEntries; e++ {
		n, err := r.u8()
		if err != nil {
			return 0, nil, err
		}
		lpas, err := r.bytes(int(n))
		if err != nil {
			return 0, nil, err
		}
		if n == 0 {
			return 0, nil, fmt.Errorf("core: empty CRB entry in group record")
		}
		g.crb.entries = append(g.crb.entries, crbEntry{lpas: append([]uint8(nil), lpas...)})
	}
	// Sort the entries, then rebuild the owner acceleration index and the
	// flat byte footprint — the decoded group must be fully servable on
	// its own (the demand-paging path installs it without the full-table
	// recomputeStats sweep).
	g.crb.normalize()
	g.crb.recompute()
	// The wire record carries no trigger state. Re-arm with no growth
	// allowance: the first commit that adds to a loaded group re-derives
	// it, so allowances cannot compound across page-out/page-in cycles.
	g.rebuildAt = max(rebuildMinSegments, g.segmentCount())
	return addr.GroupID(gid), g, nil
}

// segmentTotal returns the number of segments in the next n levels of a
// group record without moving r, checking that every level's header and
// segments are present.
func (r *reader) segmentTotal(n int) (int, error) {
	probe, total := *r, 0
	for l := 0; l < n; l++ {
		nSegs, err := probe.u16()
		if err != nil {
			return 0, err
		}
		if _, err := probe.bytes(int(nSegs) * SegmentBytes); err != nil {
			return 0, err
		}
		total += int(nSegs)
	}
	return total, nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	buf []byte
	off int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("core: truncated record at offset %d", r.off)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}
