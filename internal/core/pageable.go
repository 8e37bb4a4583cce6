package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// Group-granular residency operations: the learned table doubles as a
// pageable container whose unit of transfer is one 256-LPA segment group.
// MarshalGroup/InstallGroup speak the snapshot's per-group record format
// (see persist.go), so an evicted group's bytes are exactly the
// translation-page payload §3.8 stores in flash translation blocks, and
// DropGroup/InstallGroup keep every incremental statistic in step so
// SizeBytes always reports only what is DRAM-resident.

// HasGroup reports whether the group is resident in the table.
func (t *Table) HasGroup(id addr.GroupID) bool {
	return t.lookupGroup(id) != nil
}

// GroupFootprint returns the DRAM bytes a resident group accounts for
// (encoded segments plus flat CRB footprint — the same quantities
// SizeBytes sums). It returns 0 for non-resident groups.
func (t *Table) GroupFootprint(id addr.GroupID) int {
	g := t.lookupGroup(id)
	if g == nil {
		return 0
	}
	return g.footprint()
}

// ResidentGroups returns the IDs of every resident group in ascending
// order.
func (t *Table) ResidentGroups() []addr.GroupID {
	out := make([]addr.GroupID, 0, t.nGroups)
	t.eachGroup(func(id addr.GroupID, _ *group) {
		out = append(out, id)
	})
	return out
}

// MarshalGroup serializes one resident group into its translation-page
// record. The group stays resident; callers pair this with DropGroup to
// evict.
func (t *Table) MarshalGroup(id addr.GroupID) ([]byte, error) {
	g := t.lookupGroup(id)
	if g == nil {
		return nil, fmt.Errorf("core: group %d is not resident", id)
	}
	buf := make([]byte, 0, 16+t.GroupFootprint(id))
	return appendGroupRecord(buf, id, g)
}

// InstallGroup decodes a translation-page record (a MarshalGroup image)
// and makes the group resident again. It fails if the record is
// malformed, carries trailing bytes, or the group is already resident
// with state (losing the resident copy silently would corrupt the
// mapping).
func (t *Table) InstallGroup(data []byte) (addr.GroupID, error) {
	r := reader{buf: data}
	gid, g, err := readGroupRecord(&r)
	if err != nil {
		return 0, err
	}
	if r.off != len(data) {
		return 0, fmt.Errorf("core: %d trailing bytes in group record", len(data)-r.off)
	}
	if cur := t.lookupGroup(gid); cur != nil && (len(cur.levels) > 0 || len(cur.crb.entries) > 0) {
		return 0, fmt.Errorf("core: group %d is already resident", gid)
	}
	// group() creates (or finds) the empty counted group; adopting the
	// decoded state then mirrors the incremental bookkeeping of the
	// mutation path, so no recomputeStats sweep is needed.
	dst := t.group(gid)
	dst.levels = g.levels
	dst.crb = g.crb
	dst.exact = g.exact
	dst.rebuildAt, dst.touched = g.rebuildAt, false
	t.noteLevels(dst, 0)
	for li := range dst.levels {
		for i := range dst.levels[li].segs {
			t.noteAdd(dst.levels[li].segs[i])
		}
	}
	t.crbBytes += dst.crb.sizeBytes()
	return gid, nil
}

// DropGroup removes a resident group from DRAM, returning the footprint
// it freed. The caller owns keeping a serialized image (MarshalGroup)
// if the group's state must survive.
func (t *Table) DropGroup(id addr.GroupID) (freed int, ok bool) {
	g := t.lookupGroup(id)
	if g == nil {
		return 0, false
	}
	freed = g.footprint()
	for li := range g.levels {
		for i := range g.levels[li].segs {
			t.noteRemove(g.levels[li].segs[i])
		}
	}
	t.crbBytes -= g.crb.sizeBytes()
	t.totalLevels -= len(g.levels)
	t.levelFreq[len(g.levels)]--
	t.nGroups--
	t.groups[id] = nil
	return freed, true
}
