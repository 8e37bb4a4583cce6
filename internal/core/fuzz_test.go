package core

import (
	"bytes"
	"testing"

	"leaftl/internal/addr"
)

// fuzzSeeds returns valid group records to seed the corpus: the groups of
// the mixed table the paging tests use (multi-level groups, approximate
// segments, CRBs), learned as the paper preset learns them (γ = 4) and
// as the full one does (γ = 0, presetGamma).
func fuzzSeeds(t interface{ Helper() }) (groups [][]byte) {
	seq := make([]addr.LPA, 256)
	for i := range seq {
		seq[i] = addr.LPA(i)
	}
	for _, bitmap := range []bool{false, true} {
		tab := NewTable(presetGamma(4, bitmap))
		commit := func(lpas []addr.LPA, base addr.PPA) {
			pairs := make([]addr.Mapping, len(lpas))
			for i, l := range lpas {
				pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
			}
			tab.Update(pairs)
		}
		commit(seq, 100)
		commit([]addr.LPA{10, 13, 17, 20, 29}, 50000)
		commit([]addr.LPA{300, 302, 305, 309}, 51000)
		for _, gid := range tab.ResidentGroups() {
			img, _ := tab.MarshalGroup(gid)
			groups = append(groups, img)
		}
	}
	return groups
}

// FuzzPersist fuzzes the per-group record decoder, InstallGroup (the
// demand-paging translation-page decoder), against panics, and asserts
// every accepted input round-trips to a canonical fixed point:
// re-marshaling what was decoded, decoding that, and marshaling again
// must reproduce the same bytes, with the incremental statistics
// agreeing with a from-scratch recomputation. Batches committed into the
// installed group then must not panic either.
func FuzzPersist(f *testing.F) {
	groups := fuzzSeeds(f)
	for _, g := range groups {
		f.Add(g)
	}
	f.Add(emptyGroupRecord(7))                                  // a group with no state
	f.Add(append(groups[0][:len(groups[0]):len(groups[0])], 0)) // a trailing byte
	f.Add(groups[0][:len(groups[0])-3])                         // truncated mid-CRB
	f.Add([]byte("LFTL\x05\x04\x00\x00\x00\x00"))               // not a record at all
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gt := NewTable(0)
		gid, err := gt.InstallGroup(data)
		if err != nil {
			return
		}
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
		incr := gt2.SizeBytes()
		gt2.recomputeBytes()
		if incr != gt2.SizeBytes() {
			t.Fatalf("SizeBytes diverges after decode: %d vs %d", incr, gt2.SizeBytes())
		}
		// Commit into the group, so an accepted record also goes through
		// the insert path and the rebuild: a sequential, a strided and a
		// short run, then a sweep that rebuilds the group.
		base := addr.GroupBase(gid)
		gt.Update(mappings(base, 1, 1<<20, 128))
		gt.Update(mappings(base+1, 3, 2<<20, 60))
		gt.Update(mappings(base+200, 1, 3<<20, 8))
		gt.Compact()
	})
}
