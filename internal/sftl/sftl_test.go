package sftl

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

func commit(s *SFTL, start addr.LPA, ppa addr.PPA, n int) {
	pairs := make([]addr.Mapping, n)
	for i := 0; i < n; i++ {
		pairs[i] = addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa + addr.PPA(i)}
	}
	s.Commit(pairs)
}

func TestSequentialCondensesToOneRun(t *testing.T) {
	s := New(4096, 1<<20)
	commit(s, 0, 1000, 512) // exactly one region, strictly sequential
	if got := s.FullSizeBytes(); got != EntryBytes {
		t.Errorf("sequential region size = %d, want %d", got, EntryBytes)
	}
	tr, ok := s.Translate(300)
	if !ok || tr.PPA != 1300 {
		t.Fatalf("Translate(300) = %+v, %v", tr, ok)
	}
}

func TestRandomRegionCostsPerEntry(t *testing.T) {
	s := New(4096, 1<<20)
	rng := rand.New(rand.NewSource(2))
	// Scattered PPAs: every entry its own run.
	for i := 0; i < 512; i++ {
		s.Commit([]addr.Mapping{{LPA: addr.LPA(i), PPA: addr.PPA(rng.Intn(1 << 24))}})
	}
	if got := s.FullSizeBytes(); got < 512*EntryBytes/2 {
		t.Errorf("random region size = %d, suspiciously small", got)
	}
}

func TestOverwriteSplitsRun(t *testing.T) {
	s := New(4096, 1<<20)
	commit(s, 0, 1000, 512)
	// Overwrite one page in the middle: the run splits into three.
	s.Commit([]addr.Mapping{{LPA: 100, PPA: 99999}})
	if got := s.FullSizeBytes(); got != 3*EntryBytes {
		t.Errorf("size after split = %d, want %d", got, 3*EntryBytes)
	}
	tr, _ := s.Translate(100)
	if tr.PPA != 99999 {
		t.Errorf("Translate(100) = %d", tr.PPA)
	}
	tr, _ = s.Translate(101)
	if tr.PPA != 1101 {
		t.Errorf("Translate(101) = %d", tr.PPA)
	}
}

func TestMissCostsMetaRead(t *testing.T) {
	s := New(4096, 8) // fits one 8-byte region descriptor
	commit(s, 0, 0, 512)
	commit(s, 512, 1000, 512) // evicts region 0
	tr, ok := s.Translate(0)
	if !ok || len(tr.Cost.ReadIDs) != 1 {
		t.Fatalf("evicted region translate = %+v", tr)
	}
	// Now cached: the next lookup in the same region is free.
	tr, _ = s.Translate(1)
	if len(tr.Cost.ReadIDs) != 0 {
		t.Errorf("cached region lookup cost %d reads", len(tr.Cost.ReadIDs))
	}
}

func TestMemoryBounded(t *testing.T) {
	s := New(4096, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		s.Commit([]addr.Mapping{{LPA: addr.LPA(rng.Intn(1 << 16)), PPA: addr.PPA(rng.Intn(1 << 20))}})
		if s.MemoryBytes() > 64 {
			t.Fatalf("region cache exceeded budget: %d", s.MemoryBytes())
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	s := New(4096, 2048)
	model := map[addr.LPA]addr.PPA{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			lpa := addr.LPA(rng.Intn(8192))
			ppa := addr.PPA(rng.Intn(1 << 20))
			s.Commit([]addr.Mapping{{LPA: lpa, PPA: ppa}})
			model[lpa] = ppa
		} else {
			lpa := addr.LPA(rng.Intn(8192))
			tr, ok := s.Translate(lpa)
			want, inModel := model[lpa]
			if ok != inModel || (ok && tr.PPA != want) {
				t.Fatalf("op %d: Translate(%d) = %+v/%v, want %d/%v", i, lpa, tr, ok, want, inModel)
			}
		}
	}
}

func TestFullSizeSmallerThanDFTLOnSequential(t *testing.T) {
	s := New(4096, 1<<20)
	for r := 0; r < 16; r++ {
		commit(s, addr.LPA(r*512), addr.PPA(r*512), 512)
	}
	dftlSize := 16 * 512 * EntryBytes
	if got := s.FullSizeBytes(); got*10 > dftlSize {
		t.Errorf("SFTL size %d not ≪ DFTL size %d on sequential workload", got, dftlSize)
	}
}

// TestCommitEvictsRegionsInOrder: a batch touching several regions dirties
// them in ascending order, so with room for one region the evictions it
// causes write back the lower regions first, identically on every run.
func TestCommitEvictsRegionsInOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := New(4096, 8) // fits one 8-byte region descriptor
		pairs := []addr.Mapping{{LPA: 0, PPA: 10}, {LPA: 512, PPA: 20}, {LPA: 1024, PPA: 30}}
		cost := s.Commit(pairs)
		if len(cost.WriteIDs) != 2 || cost.WriteIDs[0] != 0 || cost.WriteIDs[1] != 1 {
			t.Fatalf("trial %d: dirty evictions wrote back regions %v, want [0 1]", trial, cost.WriteIDs)
		}
	}
}
