package core

import (
	"bytes"
	"testing"

	"leaftl/internal/addr"
)

// fuzzSeeds returns valid snapshots and group records to seed the
// corpus: an empty table, a sequential table, and the mixed table the
// paging tests use (multi-level groups, approximate segments, CRBs).
func fuzzSeeds(t interface{ Helper() }) (snapshots [][]byte, groups [][]byte) {
	tab := NewTable(4)
	commit := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
		}
		tab.Update(pairs)
	}
	empty, _ := NewTable(0).MarshalBinary()
	snapshots = append(snapshots, empty)

	seq := make([]addr.LPA, 256)
	for i := range seq {
		seq[i] = addr.LPA(i)
	}
	commit(seq, 100)
	commit([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commit([]addr.LPA{300, 302, 305, 309}, 51000)
	full, _ := tab.MarshalBinary()
	snapshots = append(snapshots, full)

	for _, gid := range tab.ResidentGroups() {
		img, _ := tab.MarshalGroup(gid)
		groups = append(groups, img)
	}

	// A bitmap-enabled table: the same commits re-verified through
	// refreshExactBits, so the records carry set exact bits.
	bt := NewTable(4)
	bt.EnableExactBitmap()
	commitB := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
		}
		bt.Update(pairs)
	}
	commitB(seq, 100)
	commitB([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commitB([]addr.LPA{300, 302, 305, 309}, 51000)
	bm, _ := bt.MarshalBinary()
	snapshots = append(snapshots, bm)
	for _, gid := range bt.ResidentGroups() {
		img, _ := bt.MarshalGroup(gid)
		groups = append(groups, img)
	}
	return snapshots, groups
}

// FuzzPersist fuzzes the two snapshot decoders — the full-table
// UnmarshalBinary and the per-group InstallGroup (the demand-paging
// translation-page decoder) — against panics, and asserts every accepted
// input round-trips to a canonical fixed point: re-marshaling what was
// decoded, decoding that, and marshaling again must reproduce the same
// bytes, with the incremental statistics agreeing with a from-scratch
// recomputation.
func FuzzPersist(f *testing.F) {
	snaps, groups := fuzzSeeds(f)
	for _, s := range snaps {
		f.Add(s)
	}
	for _, g := range groups {
		f.Add(g)
	}
	f.Add([]byte("LFTL\x05\x04\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Full-snapshot decoder.
		tab := NewTable(0)
		if err := tab.UnmarshalBinary(data); err == nil {
			canon, err := tab.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted snapshot does not re-marshal: %v", err)
			}
			second := NewTable(0)
			if err := second.UnmarshalBinary(canon); err != nil {
				t.Fatalf("canonical snapshot rejected: %v", err)
			}
			again, err := second.MarshalBinary()
			if err != nil {
				t.Fatalf("canonical snapshot does not re-marshal: %v", err)
			}
			if !bytes.Equal(canon, again) {
				t.Fatal("canonical snapshot is not a marshaling fixed point")
			}
			incr := second.Stats()
			second.recomputeStats()
			if incr != second.Stats() {
				t.Fatalf("incremental stats diverge after decode: %+v vs %+v", incr, second.Stats())
			}
		}

		// Per-group translation-page decoder.
		gt := NewTable(0)
		if gid, err := gt.InstallGroup(data); err == nil {
			img, err := gt.MarshalGroup(gid)
			if err != nil {
				t.Fatalf("accepted group record does not re-marshal: %v", err)
			}
			gt2 := NewTable(0)
			gid2, err := gt2.InstallGroup(img)
			if err != nil || gid2 != gid {
				t.Fatalf("canonical group record rejected: %v (gid %d vs %d)", err, gid2, gid)
			}
			again, err := gt2.MarshalGroup(gid2)
			if err != nil || !bytes.Equal(img, again) {
				t.Fatalf("canonical group record is not a marshaling fixed point: %v", err)
			}
			if gt.SizeBytes() != gt2.SizeBytes() || gt.Stats() != gt2.Stats() {
				t.Fatalf("group record stats diverge: %+v vs %+v", gt.Stats(), gt2.Stats())
			}
		}
	})
}
