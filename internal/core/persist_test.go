package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/float16"
)

// buildChurnedTable creates a table with multiple levels, approximate
// segments and CRB state.
func buildChurnedTable(t *testing.T, gamma int, seed int64) (*Table, model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := NewTable(gamma)
	m := model{}
	ppa := addr.PPA(0)
	for round := 0; round < 120; round++ {
		start := addr.LPA(rng.Intn(2048))
		var pairs []addr.Mapping
		switch round % 3 {
		case 0:
			n := 1 + rng.Intn(200)
			for i := 0; i < n; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa})
				ppa++
			}
		case 1:
			st := 2 + rng.Intn(4)
			for i := 0; i < 40; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i*st), PPA: ppa})
				ppa++
			}
		default:
			l := start
			for i := 0; i < 30; i++ {
				l += addr.LPA(1 + rng.Intn(4))
				pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
				ppa++
			}
		}
		tb.Update(pairs)
		m.apply(pairs)
	}
	return tb, m
}

// groupImages marshals every resident group. Two tables with equal
// images hold the same mapping state.
func groupImages(t testing.TB, tb *Table) map[addr.GroupID][]byte {
	t.Helper()
	out := make(map[addr.GroupID][]byte)
	for _, gid := range tb.ResidentGroups() {
		img, err := tb.MarshalGroup(gid)
		if err != nil {
			t.Fatal(err)
		}
		out[gid] = img
	}
	return out
}

// emptyGroupRecord is the wire record of a group holding no state: the
// id, no levels and no CRB entries.
func emptyGroupRecord(gid uint8) []byte {
	return []byte{gid, 0, 0, 0, 0, 0, 0, 0}
}

// TestMarshalRoundTrip installs every group record of a churned table
// into a fresh table and requires identical lookups and statistics, and
// a table that keeps working afterwards.
func TestMarshalRoundTrip(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		t.Run(gammaName(gamma), func(t *testing.T) {
			tb, m := buildChurnedTable(t, gamma, 31)
			restored := NewTable(gamma)
			for gid, img := range groupImages(t, tb) {
				if got, err := restored.InstallGroup(img); err != nil || got != gid {
					t.Fatalf("install group %d: got %d, %v", gid, got, err)
				}
			}
			// Every lookup must agree exactly with the original table.
			for lpa := range m {
				want, wres, wok := tb.Lookup(lpa)
				got, gres, gok := restored.Lookup(lpa)
				if wok != gok || want != got || wres != gres {
					t.Fatalf("Lookup(%d): original %d/%v/%v, restored %d/%v/%v",
						lpa, want, wres, wok, got, gres, gok)
				}
			}
			// Structure statistics survive too.
			if a, b := tb.Stats(), restored.Stats(); a != b {
				t.Errorf("stats differ: %+v vs %+v", a, b)
			}
			// Mutations after restore keep working.
			restored.Update(mappings(0, 1, 999999, 64))
			if ppa, _, ok := restored.Lookup(10); !ok || ppa != 999999+10 {
				t.Errorf("post-restore update broken: %d %v", ppa, ok)
			}
		})
	}
}

func TestMarshalSizeMatchesAccounting(t *testing.T) {
	tb, _ := buildChurnedTable(t, 4, 7)
	st := tb.Stats()
	total := 0
	for gid, img := range groupImages(t, tb) {
		// Record = footprint (segments + CRB) + a small header.
		footprint := tb.GroupFootprint(gid)
		if len(img) < footprint {
			t.Errorf("group %d: record %dB smaller than footprint %dB", gid, len(img), footprint)
		}
		total += len(img)
	}
	overhead := total - tb.SizeBytes()
	// Per group: 4B gid + 2B level count + 2B CRB count; per level a 2B
	// segment count; per CRB entry a length byte.
	maxOverhead := st.Groups*8 + st.TotalLevels*2 + st.Approximate*1
	if overhead > maxOverhead {
		t.Errorf("record overhead %dB exceeds bound %dB", overhead, maxOverhead)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tb, _ := buildChurnedTable(t, 0, 3)
	var good []byte
	for _, img := range groupImages(t, tb) {
		if len(img) > len(good) {
			good = img // the largest record: several levels and a CRB
		}
	}
	implausible := append([]byte(nil), good...)
	implausible[3] = 0xff // group id ≥ 2^24
	cases := map[string][]byte{
		"empty":             {},
		"short gid":         good[:3],
		"implausible gid":   implausible,
		"short level count": good[:5],
		"truncated":         good[:len(good)/2],
		"trailing junk":     append(append([]byte(nil), good...), 0xAA),
	}
	for name, data := range cases {
		if _, err := NewTable(0).InstallGroup(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A record whose CRB holds one entry of no LPAs.
	rec := emptyGroupRecord(1)
	rec[len(rec)-2] = 1
	if _, err := NewTable(0).InstallGroup(rec); err == nil {
		t.Error("empty CRB entry accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	tb, _ := buildChurnedTable(t, 4, 5)
	if !maps.EqualFunc(groupImages(t, tb), groupImages(t, tb), bytes.Equal) {
		t.Error("marshal is nondeterministic")
	}
	// Two tables built by the same commits marshal to the same bytes.
	twin, _ := buildChurnedTable(t, 4, 5)
	if !maps.EqualFunc(groupImages(t, tb), groupImages(t, twin), bytes.Equal) {
		t.Error("equal tables marshal differently")
	}
}

// TestMarshalEmptyTable: an empty table has no records, and a group with
// no state round-trips as the minimal record.
func TestMarshalEmptyTable(t *testing.T) {
	tb := NewTable(2)
	if imgs := groupImages(t, tb); len(imgs) != 0 {
		t.Fatalf("empty table marshals %d groups", len(imgs))
	}
	if _, err := tb.MarshalGroup(0); err == nil {
		t.Fatal("marshaled a group the table does not hold")
	}
	rec := emptyGroupRecord(7)
	restored := NewTable(0)
	gid, err := restored.InstallGroup(rec)
	if err != nil || gid != 7 {
		t.Fatalf("minimal record: gid %d, %v", gid, err)
	}
	if restored.SizeBytes() != 0 {
		t.Errorf("empty group accounts %dB", restored.SizeBytes())
	}
	again, err := restored.MarshalGroup(7)
	if err != nil || string(again) != string(rec) {
		t.Fatalf("minimal record does not round-trip: %x vs %x (%v)", again, rec, err)
	}
}

// segmentRecord is a group-0 record of one level holding segs, with no
// CRB entries.
func segmentRecord(segs ...Segment) []byte {
	rec := []byte{0, 0, 0, 0}
	rec = binary.LittleEndian.AppendUint16(rec, 1)
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(segs)))
	for _, s := range segs {
		enc := s.Encode()
		rec = append(rec, enc[:]...)
	}
	return binary.LittleEndian.AppendUint16(rec, 0)
}

// accurate is a stride-1 accurate segment over group 0's offsets
// [start, start+l].
func accurate(start, l uint8) Segment {
	return Segment{SLPA: addr.LPA(start), L: l, K: float16.From64(1).WithFlag(false), I: 1000}
}

// TestInstallGroupRejectsCorruptShape: a record whose segment runs past
// its 256-LPA group, whose level is out of order or overlapping, or that
// stacks more levels than a group may hold is an error on install — not
// a panic in the rebuild of the next commit into that group.
func TestInstallGroupRejectsCorruptShape(t *testing.T) {
	deep := []byte{0, 0, 0, 0}
	deep = binary.LittleEndian.AppendUint16(deep, maxGroupLevels+1)
	for i := 0; i <= maxGroupLevels; i++ {
		deep = binary.LittleEndian.AppendUint16(deep, 0)
	}
	deep = binary.LittleEndian.AppendUint16(deep, 0)
	for name, rec := range map[string][]byte{
		"past the group":    segmentRecord(accurate(250, 20)),
		"starts descending": segmentRecord(accurate(40, 4), accurate(10, 4)),
		"equal starts":      segmentRecord(accurate(10, 4), accurate(10, 8)),
		"ranges overlap":    segmentRecord(accurate(10, 8), accurate(15, 4)),
		"too many levels":   deep,
	} {
		tb := NewTable(0)
		if _, err := tb.InstallGroup(rec); err == nil {
			t.Errorf("%s: accepted", name)
			// Unchecked, the group's rebuild is where it fails.
			tb.Update(mappings(0, 2, 5000, 64))
			tb.Compact()
		}
	}
	if _, err := NewTable(0).InstallGroup(segmentRecord(accurate(10, 4), accurate(15, 240))); err != nil {
		t.Errorf("a well-formed level: %v", err)
	}
}
