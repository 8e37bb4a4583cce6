package core

import (
	"bytes"
	"testing"

	"leaftl/internal/addr"
)

// journalTestImages returns a sequence of distinct, valid images of
// the same group (group 0), produced by successively overwriting the
// group's LPAs at fresh PPAs — the states a write-hot group's dirty
// evictions would persist.
func journalTestImages(t *testing.T, n int) [][]byte {
	t.Helper()
	tab := NewTable(4)
	tab.EnableExactBitmap()
	imgs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		base := addr.PPA(1000 + i*2048)
		pairs := make([]addr.Mapping, 0, 64)
		// Alternate a clean sequential run with a scattered overwrite so
		// levels, CRB and bitmap sections all churn across the sequence.
		if i%2 == 0 {
			for l := 0; l < 64; l++ {
				pairs = append(pairs, addr.Mapping{LPA: addr.LPA(l), PPA: base + addr.PPA(l)})
			}
		} else {
			for l := 0; l < 40; l++ {
				pairs = append(pairs, addr.Mapping{LPA: addr.LPA(l * 3), PPA: base + addr.PPA(l)})
			}
		}
		tab.Update(pairs)
		img, err := tab.MarshalGroup(0)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// TestDeltaRoundTrip pins the delta codec: parse, diff, replay must
// reproduce the successor image byte for byte, an identical image must
// encode to no delta at all, and a small change must cost fewer bytes
// than the full image it stands in for.
func TestDeltaRoundTrip(t *testing.T) {
	imgs := journalTestImages(t, 6)
	for i := 1; i < len(imgs); i++ {
		base, err := parseRecSections(imgs[i-1])
		if err != nil {
			t.Fatalf("base %d: %v", i-1, err)
		}
		cur, err := parseRecSections(imgs[i])
		if err != nil {
			t.Fatalf("cur %d: %v", i, err)
		}
		if got := base.serialize(); !bytes.Equal(got, imgs[i-1]) {
			t.Fatalf("image %d: parse∘serialize is not the identity", i-1)
		}
		delta := encodeDelta(base, cur, 1)
		if delta == nil {
			t.Fatalf("images %d→%d differ but encode to no delta", i-1, i)
		}
		out, err := applyDelta(base, delta, 1)
		if err != nil {
			t.Fatalf("replay %d→%d: %v", i-1, i, err)
		}
		if !bytes.Equal(out.serialize(), imgs[i]) {
			t.Fatalf("replay %d→%d does not reproduce the successor image", i-1, i)
		}
		// Chain-gap and cross-group application must be rejected.
		if _, err := applyDelta(base, delta, 2); err == nil {
			t.Fatal("replay accepted a sequence gap")
		}
		other := base
		other.gid++
		if _, err := applyDelta(other, delta, 1); err == nil {
			t.Fatal("replay accepted a record for another group")
		}
	}

	base, _ := parseRecSections(imgs[0])
	if d := encodeDelta(base, base, 1); d != nil {
		t.Fatalf("identical sections encoded a %dB delta", len(d))
	}

	// A full-image record replays from nothing, and only as a base.
	full := encodeFull(imgs[0], 0)
	out, err := applyDelta(recSections{}, full, 0)
	if err != nil {
		t.Fatalf("full-image replay: %v", err)
	}
	if !bytes.Equal(out.serialize(), imgs[0]) {
		t.Fatal("full-image replay does not reproduce the image")
	}
	if _, err := applyDelta(out, full, 1); err == nil {
		t.Fatal("full-image record accepted mid-chain")
	}
}

// TestJournalWritebackFold drives one group through repeated writebacks
// and pins the journal's state machine: first writeback is a base, the
// next ones append deltas, a byte-identical rewrite is free, and the
// chain folds to a fresh base once it passes the length threshold —
// with the audit and the folded image holding at every step.
func TestJournalWritebackFold(t *testing.T) {
	// A small page keeps the open SRAM tail from swallowing the whole
	// sequence, so loads below actually charge flash reads.
	imgs := journalTestImages(t, journalMaxChain+4)
	j := newJournal(256)

	cost := j.writeback(0, imgs[0])
	if s := j.Stats(); s.Bases != 1 || s.Appends != 0 {
		t.Fatalf("first writeback: %d bases, %d appends; want 1, 0", s.Bases, s.Appends)
	}
	if cost.MetaWrites != 0 {
		t.Fatalf("first writeback charged %d page writes before the tail filled", cost.MetaWrites)
	}
	if j.writeback(0, imgs[0]).MetaWrites != 0 || j.Stats().Appends != 0 {
		t.Fatal("byte-identical rewrite was not free")
	}

	for i := 1; i < len(imgs); i++ {
		j.writeback(0, imgs[i])
		if got := j.image(0); !bytes.Equal(got, imgs[i]) {
			t.Fatalf("after writeback %d the folded image diverges", i)
		}
		if err := j.check(); err != nil {
			t.Fatalf("after writeback %d: %v", i, err)
		}
		if s := j.Stats(); s.MaxChain > journalMaxChain {
			t.Fatalf("after writeback %d: chain %d exceeds the fold threshold", i, s.MaxChain)
		}
	}
	s := j.Stats()
	if s.Appends == 0 {
		t.Error("no deltas appended across the sequence")
	}
	if s.Folds == 0 {
		t.Error("chain never folded despite exceeding the threshold")
	}

	img, cost := j.load(0)
	if !bytes.Equal(img, imgs[len(imgs)-1]) {
		t.Fatal("load does not return the newest image")
	}
	if cost.MetaReads == 0 {
		t.Error("load charged no page reads despite charged pages under the chain")
	}
}

// TestJournalGC squeezes the footprint cap so appends must reclaim
// translation blocks: the lowest-live sealed block's groups fold to the
// log head, the block is erased, and the audit, the cap (+1 open block)
// and every group's image survive the cycling.
func TestJournalGC(t *testing.T) {
	const nGroups = 4
	tabs := make([]*Table, nGroups)
	for g := range tabs {
		tabs[g] = NewTable(4)
	}
	image := func(g, round int) []byte {
		pairs := make([]addr.Mapping, 32)
		for l := range pairs {
			pairs[l] = addr.Mapping{
				LPA: addr.LPA(g*addr.GroupSize + l*2),
				PPA: addr.PPA(10_000 + round*4096 + g*512 + l),
			}
		}
		tabs[g].Update(pairs)
		img, err := tabs[g].MarshalGroup(addr.GroupID(g))
		if err != nil {
			t.Fatalf("group %d round %d: %v", g, round, err)
		}
		return img
	}

	j := newJournal(256)
	j.configure(2, 4) // 512B blocks, GC beyond 4 pages = 2 blocks
	var folds int
	j.hook = func(point string) {
		if point == "journal.fold" {
			folds++
		}
	}
	want := make([][]byte, nGroups)
	for round := 0; round < 12; round++ {
		for g := 0; g < nGroups; g++ {
			want[g] = image(g, round)
			j.writeback(addr.GroupID(g), want[g])
			if err := j.check(); err != nil {
				t.Fatalf("round %d group %d: %v", round, g, err)
			}
		}
	}
	s := j.Stats()
	if s.GCRuns == 0 {
		t.Fatal("journal GC never ran under a 2-block cap")
	}
	if folds == 0 {
		t.Error("journal.fold hook never fired")
	}
	if s.Pages > 4+2 {
		t.Errorf("footprint %d pages exceeds the cap plus one open block", s.Pages)
	}
	for g := 0; g < nGroups; g++ {
		if got := j.image(addr.GroupID(g)); !bytes.Equal(got, want[g]) {
			t.Errorf("group %d image diverged across GC", g)
		}
	}
}

// TestPersistVersionRejection is the table-driven guard over the shared
// record-header helper: every versioned reader — the snapshot decoder
// and the journal-record decoder — must reject wrong magic and any
// version outside its window, and accept its own.
func TestPersistVersionRejection(t *testing.T) {
	tab := NewTable(4)
	pairs := make([]addr.Mapping, 16)
	for i := range pairs {
		pairs[i] = addr.Mapping{LPA: addr.LPA(i), PPA: addr.PPA(100 + i)}
	}
	tab.Update(pairs)
	snap, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	img, err := tab.MarshalGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	jrec := encodeFull(img, 0)

	decodeSnapshot := func(data []byte) error { return NewTable(0).UnmarshalBinary(data) }
	decodeJournal := func(data []byte) error {
		_, _, _, _, err := decodeJournalRecord(data)
		return err
	}

	cases := []struct {
		name    string
		valid   []byte
		decode  func([]byte) error
		version uint8
	}{
		{"snapshot", snap, decodeSnapshot, persistVersion},
		{"journal record", jrec, decodeJournal, journalVersion},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.valid); err != nil {
				t.Fatalf("valid v%d record rejected: %v", c.version, err)
			}
			for _, ver := range []uint8{0, 1, 2, 3, 4, 5, 6, 42, 255} {
				if ver == c.version {
					continue
				}
				mut := append([]byte(nil), c.valid...)
				mut[len(persistMagic)] = ver
				if err := c.decode(mut); err == nil {
					t.Errorf("version %d accepted by the %s reader", ver, c.name)
				}
			}
			mut := append([]byte(nil), c.valid...)
			mut[0] ^= 0xff
			if err := c.decode(mut); err == nil {
				t.Error("corrupt magic accepted")
			}
			for cut := 0; cut < len(persistMagic)+1; cut++ {
				if err := c.decode(c.valid[:cut]); err == nil {
					t.Errorf("truncated header (%dB) accepted", cut)
				}
			}
		})
	}
}

// FuzzJournal fuzzes the journal-record decoder — base replay,
// mid-chain delta replay, and the fold path — against panics, and
// asserts every accepted input lands on a canonical fixed point: the
// replayed sections must re-serialize to a parseable image, re-framing
// that image as a fresh base must replay to the same bytes, and a
// re-encoded delta must reproduce the same successor.
func FuzzJournal(f *testing.F) {
	_, groups := fuzzSeeds(f)
	var baseImg []byte
	for _, img := range groups {
		f.Add(encodeFull(img, 0))
		if baseImg == nil {
			baseImg = img
		}
	}
	if sec, err := parseRecSections(groups[0]); err == nil {
		for _, img := range groups[1:] {
			cur, err := parseRecSections(img)
			if err != nil {
				continue
			}
			cur.gid = sec.gid
			if d := encodeDelta(sec, cur, 1); d != nil {
				f.Add(d)
			}
		}
	}
	f.Add([]byte("LFTL\x06\x00\x00\x00\x00\x00\x00\x08"))
	f.Add([]byte{})

	baseSec, err := parseRecSections(baseImg)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Base replay: an accepted record must fold to a well-formed image
		// that round-trips through the full-image framing.
		if out, err := applyDelta(recSections{}, data, 0); err == nil {
			img := out.serialize()
			sec, err := parseRecSections(img)
			if err != nil {
				t.Fatalf("accepted base replays to an unparseable image: %v", err)
			}
			if !bytes.Equal(sec.serialize(), img) {
				t.Fatal("replayed image is not a serialization fixed point")
			}
			again, err := applyDelta(recSections{}, encodeFull(img, out.gid), 0)
			if err != nil {
				t.Fatalf("re-framed base rejected: %v", err)
			}
			if !bytes.Equal(again.serialize(), img) {
				t.Fatal("re-framed base is not a replay fixed point")
			}
		}

		// Mid-chain replay onto a fixed valid base: an accepted delta's
		// successor must round-trip through the delta encoder (the fold
		// path's inverse).
		if out, err := applyDelta(baseSec, data, 1); err == nil {
			img := out.serialize()
			sec, err := parseRecSections(img)
			if err != nil {
				t.Fatalf("accepted delta replays to an unparseable image: %v", err)
			}
			if d := encodeDelta(baseSec, sec, 1); d != nil {
				redo, err := applyDelta(baseSec, d, 1)
				if err != nil {
					t.Fatalf("re-encoded delta rejected: %v", err)
				}
				if !bytes.Equal(redo.serialize(), img) {
					t.Fatal("re-encoded delta is not a replay fixed point")
				}
			} else if !bytes.Equal(img, baseSec.serialize()) {
				t.Fatal("delta changed the image but re-encodes to nothing")
			}
		}
	})
}
