package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"leaftl/internal/addr"
)

// Serialization of the learned mapping table (paper §3.8): LeaFTL stores
// the learned index segments in flash translation blocks, indexed by the
// global mapping directory (GMD), so the table survives power cycles
// without a full OOB scan when battery-backed DRAM persists it on
// failure. The format is deliberately simple and versioned:
//
//	header:  magic "LFTL" | version u8 | gamma u8
//	groups:  count u32, then per group (ascending group id):
//	         gid u32
//	         exact bitmap: 32 bytes (one bit per LPA slot)
//	         levels u16
//	         per level: segments u16, then 8-byte encoded segments
//	         crb entries u16, then per entry: len u8, offsets…
//
// All integers are little-endian. The encoding is exactly the DRAM
// footprint the paper counts (8 bytes per segment plus CRB bytes) plus
// small per-group headers. The predicted-exact bitmap (exact.go) is
// always present on the wire — all-zero while the feature is disabled —
// so the record has one shape, and it round-trips bit-identically
// through page-out, snapshot, and recovery. Version 5 dropped the
// 15-byte per-group tuning block that versions 2–3 carried ahead of the
// bitmap (version 4 is the journal's); older snapshots are rejected.
//
// The per-group record (everything after the snapshot header and count)
// is also the unit the demand-paging machinery moves to and from flash
// translation pages: MarshalGroup/InstallGroup speak exactly this record,
// so a full snapshot is a header plus the concatenated translation-page
// payloads of every group.

const (
	persistMagic   = "LFTL"
	persistVersion = 5
)

// appendRecordHeader writes the shared versioned-record framing — the
// "LFTL" magic plus a version byte — that prefixes both full snapshots
// and journal delta records.
func appendRecordHeader(buf []byte, version uint8) []byte {
	buf = append(buf, persistMagic...)
	return append(buf, version)
}

// readRecordHeader consumes the shared versioned-record framing and
// returns the version byte, rejecting anything outside [minVer, maxVer].
// kind names the record family for error messages ("snapshot", "journal
// record"). Every versioned reader — snapshots and journal records —
// funnels through here so magic and version validation exist exactly
// once.
func readRecordHeader(r *reader, kind string, minVer, maxVer uint8) (uint8, error) {
	magic, err := r.bytes(len(persistMagic))
	if err != nil || string(magic) != persistMagic {
		return 0, fmt.Errorf("core: bad %s magic", kind)
	}
	ver, err := r.u8()
	if err != nil || ver < minVer || ver > maxVer {
		return 0, fmt.Errorf("core: unsupported %s version %d", kind, ver)
	}
	return ver, nil
}

// appendGroupRecord serializes one group in the snapshot's per-group
// record format.
func appendGroupRecord(buf []byte, id addr.GroupID, g *group) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	buf = append(buf, g.exact[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(g.levels)))
	for li := range g.levels {
		segs := g.levels[li].segs
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

// readGroupRecord decodes one per-group record. The returned group's CRB
// is normalized (owner index rebuilt, entries sorted) so the group is
// ready to serve lookups.
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
	bm, err := r.bytes(exactBitmapBytes)
	if err != nil {
		return 0, nil, err
	}
	g := &group{exact: exactBits(bm)}
	nLevels, err := r.u16()
	if err != nil {
		return 0, nil, err
	}
	for l := uint16(0); l < nLevels; l++ {
		nSegs, err := r.u16()
		if err != nil {
			return 0, nil, err
		}
		lvl := level{
			keys: make([]uint8, 0, nSegs),
			segs: make([]Segment, 0, nSegs),
		}
		for s := uint16(0); s < nSegs; s++ {
			raw, err := r.bytes(SegmentBytes)
			if err != nil {
				return 0, nil, err
			}
			var enc [SegmentBytes]byte
			copy(enc[:], raw)
			seg := DecodeSegment(enc, addr.GroupID(gid))
			lvl.keys = append(lvl.keys, seg.Start())
			lvl.segs = append(lvl.segs, seg)
		}
		g.levels = append(g.levels, lvl)
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
			return 0, nil, fmt.Errorf("core: empty CRB entry in snapshot")
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

// MarshalBinary serializes the table. The dense group slice is already in
// ascending group-ID order.
func (t *Table) MarshalBinary() ([]byte, error) {
	return t.SnapshotWith(nil)
}

// SnapshotWith serializes the table plus the given evicted-group images
// into one full snapshot: resident groups marshal fresh from DRAM,
// paged-out groups contribute their translation-page records verbatim,
// merged in ascending group-ID order. A group that is both resident and
// imaged is an error (the pager guarantees disjointness).
func (t *Table) SnapshotWith(images map[addr.GroupID][]byte) ([]byte, error) {
	gids := make([]addr.GroupID, 0, len(images))
	for gid := range images {
		if t.HasGroup(gid) {
			return nil, fmt.Errorf("core: group %d is both resident and imaged", gid)
		}
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })

	buf := make([]byte, 0, 64+t.SizeBytes())
	buf = appendRecordHeader(buf, persistVersion)
	buf = append(buf, uint8(t.gamma))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.nGroups+len(images)))

	var ferr error
	k := 0
	t.eachGroup(func(id addr.GroupID, g *group) {
		if ferr != nil {
			return
		}
		for k < len(gids) && gids[k] < id {
			buf = append(buf, images[gids[k]]...)
			k++
		}
		buf, ferr = appendGroupRecord(buf, id, g)
	})
	if ferr != nil {
		return nil, ferr
	}
	for ; k < len(gids); k++ {
		buf = append(buf, images[gids[k]]...)
	}
	return buf, nil
}

// UnmarshalBinary replaces the table's contents with the serialized
// state. The receiver's gamma is overwritten by the stored value.
func (t *Table) UnmarshalBinary(data []byte) error {
	r := reader{buf: data}
	if _, err := readRecordHeader(&r, "snapshot", persistVersion, persistVersion); err != nil {
		return err
	}
	gamma, err := r.u8()
	if err != nil {
		return err
	}
	nGroups, err := r.u32()
	if err != nil {
		return err
	}

	var groups []*group
	lastGid := int64(-1)
	for i := uint32(0); i < nGroups; i++ {
		gid, g, err := readGroupRecord(&r)
		if err != nil {
			return err
		}
		// Marshal writes groups in strictly ascending gid order; a corrupt
		// snapshot must not repeat or reorder them.
		if int64(gid) <= lastGid {
			return fmt.Errorf("core: snapshot group id %d out of order", gid)
		}
		lastGid = int64(gid)
		for len(groups) <= int(gid) {
			groups = append(groups, nil)
		}
		groups[gid] = g
	}
	if r.off != len(data) {
		return fmt.Errorf("core: %d trailing bytes in snapshot", len(data)-r.off)
	}

	t.gamma = int(gamma)
	t.groups = groups
	t.recomputeStats()
	return nil
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	buf []byte
	off int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.off+n > len(r.buf) {
		return nil, fmt.Errorf("core: truncated snapshot at offset %d", r.off)
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
