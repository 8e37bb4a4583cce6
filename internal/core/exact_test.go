package core

import (
	"bytes"
	"testing"

	"leaftl/internal/addr"
)

// exactTable builds a bitmap-enabled table with one written group of
// irregularly spaced LPAs (so γ > 0 learns approximate segments) and
// returns it with the committed pairs.
func exactTable(t *testing.T, gamma int) (*Table, []addr.Mapping) {
	t.Helper()
	tb := NewTable(gamma)
	tb.EnableExactBitmap()
	pairs := make([]addr.Mapping, 0, 32)
	lpa := addr.LPA(0)
	for i := 0; i < 32; i++ {
		lpa += addr.LPA(1 + i%3)
		pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: addr.PPA(1000 + i)})
	}
	tb.Update(pairs)
	return tb, pairs
}

// exactBit reports lpa's predicted-exact bit.
func exactBit(t *testing.T, tb *Table, lpa addr.LPA) bool {
	t.Helper()
	bits, ok := tb.ExactBits(addr.Group(lpa))
	if !ok {
		t.Fatalf("group of LPA %d not resident", lpa)
	}
	off := addr.Offset(lpa)
	return bits[off>>3]&(1<<(off&7)) != 0
}

func TestNoteReadSetsAndClearsExactBits(t *testing.T) {
	tb, pairs := exactTable(t, 8)
	m := pairs[5]
	if !exactBit(t, tb, m.LPA) {
		t.Fatal("verify-at-learn left a committed slot's bit clear")
	}
	// Exact translations carry no bitmap evidence.
	tb.NoteRead(m.LPA, m.PPA, m.PPA+3, false)
	if !exactBit(t, tb, m.LPA) {
		t.Error("an exact translation's feedback cleared the bit")
	}
	// An approximate miss clears the bit; a verified hit sets it again.
	tb.NoteRead(m.LPA, m.PPA, m.PPA+3, true)
	if exactBit(t, tb, m.LPA) {
		t.Error("an approximate miss left the bit set")
	}
	tb.NoteRead(m.LPA, m.PPA, m.PPA, true)
	if !exactBit(t, tb, m.LPA) {
		t.Error("a verified approximate hit left the bit clear")
	}

	// With the bitmap off, feedback changes nothing.
	off := NewTable(8)
	off.Update(pairs)
	off.NoteRead(m.LPA, m.PPA, m.PPA, true)
	if bits, _ := off.ExactBits(addr.Group(m.LPA)); bits != ([exactBitmapBytes]byte{}) {
		t.Errorf("bitmap-off table armed bits: %x", bits)
	}
}

// TestReadsLeaveGroupImageUnchanged: a read that confirms a prediction
// moves no state, so the group's wire record — and with it every journal
// delta and every dirty writeback — is untouched by read traffic.
func TestReadsLeaveGroupImageUnchanged(t *testing.T) {
	tb, pairs := exactTable(t, 8)
	// A sequential run next to the irregular one adds accurate segments.
	var run []addr.Mapping
	for i := 0; i < 64; i++ {
		run = append(run, addr.Mapping{LPA: addr.LPA(128 + i), PPA: addr.PPA(5000 + i)})
	}
	tb.Update(run)
	gid := addr.Group(pairs[0].LPA)
	before, err := tb.MarshalGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	accurate := 0
	for _, m := range append(pairs, run...) {
		ppa, res, ok := tb.Lookup(m.LPA)
		if !ok || ppa != m.PPA {
			t.Fatalf("LPA %d: lookup %d (ok %v), want %d", m.LPA, ppa, ok, m.PPA)
		}
		if !res.Approx {
			accurate++
		}
		tb.NoteRead(m.LPA, ppa, m.PPA, res.Approx)
	}
	if accurate == 0 {
		t.Fatal("no read went through an accurate segment")
	}
	after, err := tb.MarshalGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("reads changed the group image:\nbefore %x\nafter  %x", before, after)
	}
}

// TestExactBitsRoundTripThroughGroupRecord: a group's bitmap survives
// MarshalGroup/InstallGroup (the page-out/page-in path), in place and
// into a fresh table, bit-identically.
func TestExactBitsRoundTripThroughGroupRecord(t *testing.T) {
	tb, pairs := exactTable(t, 8)
	gid := addr.Group(pairs[0].LPA)
	tb.NoteRead(pairs[1].LPA, pairs[1].PPA, pairs[1].PPA+4, true) // clear one bit
	want, _ := tb.ExactBits(gid)
	if want == ([exactBitmapBytes]byte{}) {
		t.Fatal("no bit set; test is vacuous")
	}

	img, err := tb.MarshalGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.DropGroup(gid); !ok {
		t.Fatal("drop failed")
	}
	if gid2, err := tb.InstallGroup(img); err != nil || gid2 != gid {
		t.Fatalf("install: %v (gid %d)", err, gid2)
	}
	if got, _ := tb.ExactBits(gid); got != want {
		t.Fatalf("bitmap diverged after page-out/page-in: %x vs %x", got, want)
	}
	img2, err := tb.MarshalGroup(gid)
	if err != nil || !bytes.Equal(img, img2) {
		t.Fatalf("group record not bit-identical after round trip (err %v)", err)
	}

	fresh := NewTable(0)
	if _, err := fresh.InstallGroup(img); err != nil {
		t.Fatal(err)
	}
	if got, _ := fresh.ExactBits(gid); got != want {
		t.Fatalf("bitmap diverged through a fresh table: %x vs %x", got, want)
	}
}
