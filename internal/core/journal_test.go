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
	tab.EnableVerifyAtLearn()
	imgs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		base := addr.PPA(1000 + i*2048)
		pairs := make([]addr.Mapping, 0, 64)
		// Alternate a clean sequential run with a scattered overwrite so
		// levels and CRB sections both churn across the sequence.
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

// TestJournalWritebackFold drives one group through repeated writebacks
// and pins the journal's state machine: each distinct image appends one
// whole record that supersedes the last, a byte-identical rewrite is
// free, and the audit and the current image hold at every step.
func TestJournalWritebackFold(t *testing.T) {
	imgs := journalTestImages(t, 12)
	j := newJournal(256)
	if cost := j.writeback(0, imgs[0]); cost.MetaWrites != 0 {
		t.Fatalf("first writeback charged %d page writes before the tail filled", cost.MetaWrites)
	}
	if j.writeback(0, imgs[0]).MetaWrites != 0 || j.Stats().Appends != 1 {
		t.Fatal("byte-identical rewrite was not free")
	}
	for i := 1; i < len(imgs); i++ {
		j.writeback(0, imgs[i])
		if got := j.groups[0].bytes; !bytes.Equal(got, imgs[i]) {
			t.Fatalf("after writeback %d the journaled image diverges", i)
		}
		if err := j.check(); err != nil {
			t.Fatalf("after writeback %d: %v", i, err)
		}
	}
	if s := j.Stats(); s.Appends != uint64(len(imgs)) || s.Folds != 0 || s.Groups != 1 {
		t.Errorf("%d appends, %d folds, %d groups; want %d, 0, 1", s.Appends, s.Folds, s.Groups, len(imgs))
	}
}

// TestJournalLoadReadsOneRecord writes one group back many times with
// distinct images, on pages small enough that its history spans many of
// them, and bounds its load by the pages its one record can span.
func TestJournalLoadReadsOneRecord(t *testing.T) {
	const pageSize = 64
	imgs := journalTestImages(t, 12)
	j := newJournal(pageSize)
	for _, img := range imgs {
		j.writeback(0, img)
	}
	img, cost := j.load(0)
	if !bytes.Equal(img, imgs[len(imgs)-1]) {
		t.Fatal("load does not return the newest image")
	}
	bound := (len(img)+pageSize-1)/pageSize + 1
	if cost.MetaReads == 0 || cost.MetaReads > bound {
		t.Errorf("load of a %dB record charged %d page reads; want 1..%d", len(img), cost.MetaReads, bound)
	}
}

// TestJournalGC squeezes the footprint cap so appends must reclaim
// translation blocks: the lowest-live sealed block's live records (a
// cold group's among them) are re-appended at the log head, the block
// is erased, and the audit, the cap (+1 open block) and every group's
// image survive the cycling.
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
	// 36 rounds of three 18-byte records fill 8 pages, twice the cap.
	want := make([][]byte, nGroups)
	for round := 0; round < 36; round++ {
		for g := 0; g < nGroups; g++ {
			if g == nGroups-1 && round > 0 {
				continue // a cold group: its one record stays live where it landed
			}
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
	if folds == 0 || uint64(folds) != s.Folds {
		t.Errorf("journal.fold hook fired %d times for %d re-appended records; want the same, > 0", folds, s.Folds)
	}
	if s.Pages > 4+2 {
		t.Errorf("footprint %d pages exceeds the cap plus one open block", s.Pages)
	}
	for g := 0; g < nGroups; g++ {
		if got := j.groups[addr.GroupID(g)].bytes; !bytes.Equal(got, want[g]) {
			t.Errorf("group %d image diverged across GC", g)
		}
	}
}
