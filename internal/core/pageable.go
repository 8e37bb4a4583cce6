package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// Group-granular residency operations: the learned table doubles as a
// pageable container whose unit of transfer is one 256-LPA segment group.
// MarshalGroup/InstallGroup speak the per-group wire record (see
// persist.go), so an evicted group's bytes are exactly the
// translation-page payload §3.8 stores in flash translation blocks, and
// DropGroup/InstallGroup add and subtract the group's footprint, so
// SizeBytes always reports only what is DRAM-resident.

// HasGroup reports whether the group is resident in the table.
func (t *Table) HasGroup(id addr.GroupID) bool {
	t.settle()
	return t.lookupGroup(id) != nil
}

// GroupFootprint returns the DRAM bytes a resident group accounts for
// (encoded segments plus flat CRB footprint — the same quantities
// SizeBytes sums). It returns 0 for non-resident groups.
func (t *Table) GroupFootprint(id addr.GroupID) int {
	t.settle()
	g := t.lookupGroup(id)
	if g == nil {
		return 0
	}
	return g.footprint()
}

// ResidentGroups returns the IDs of every resident group in ascending
// order.
func (t *Table) ResidentGroups() []addr.GroupID {
	t.settle()
	var out []addr.GroupID
	t.eachGroup(func(id addr.GroupID, _ *group) {
		out = append(out, id)
	})
	return out
}

// MarshalGroup serializes one resident group into its translation-page
// record. The group stays resident; callers pair this with DropGroup to
// evict.
func (t *Table) MarshalGroup(id addr.GroupID) ([]byte, error) {
	t.settle()
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
	t.settle()
	gid, g, err := decodeGroupRecord(data)
	if err != nil {
		return 0, err
	}
	if cur := t.lookupGroup(gid); cur != nil && (cur.depth() > 0 || len(cur.crb.entries) > 0) {
		return 0, fmt.Errorf("core: group %d is already resident", gid)
	}
	// group() creates (or finds) the empty group, whose footprint is 0;
	// the decoded state it adopts adds its footprint to SizeBytes.
	dst := t.group(gid)
	*dst = *g
	t.bytes += dst.footprint()
	return gid, nil
}

// DropGroup removes a resident group from DRAM, returning the footprint
// it freed. The caller owns keeping a serialized image (MarshalGroup)
// if the group's state must survive.
func (t *Table) DropGroup(id addr.GroupID) (freed int, ok bool) {
	t.settle()
	g := t.lookupGroup(id)
	if g == nil {
		return 0, false
	}
	freed = g.footprint()
	t.bytes -= freed
	t.groups[id] = nil
	return freed, true
}
