package dftl

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

func commit(d *DFTL, start addr.LPA, ppa addr.PPA, n int) {
	pairs := make([]addr.Mapping, n)
	for i := 0; i < n; i++ {
		pairs[i] = addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa + addr.PPA(i)}
	}
	d.Commit(pairs)
}

func TestTranslateHitAndMiss(t *testing.T) {
	d := New(4096, 64) // 8 entries fit
	commit(d, 0, 100, 4)
	// Just-committed entries are cached.
	tr, ok := d.Translate(2)
	if !ok || tr.PPA != 102 || len(tr.Cost.ReadIDs) != 0 {
		t.Fatalf("cached translate = %+v, %v", tr, ok)
	}
	// Push them out with other entries.
	commit(d, 1000, 5000, 8)
	tr, ok = d.Translate(2)
	if !ok || tr.PPA != 102 {
		t.Fatalf("translate after eviction = %+v, %v", tr, ok)
	}
	if len(tr.Cost.ReadIDs) != 1 {
		t.Errorf("evicted entry cost %d meta reads, want 1", len(tr.Cost.ReadIDs))
	}
	if _, ok := d.Translate(99999); ok {
		t.Error("unmapped LPA translated")
	}
}

func TestDirtyEvictionBatches(t *testing.T) {
	// CMT of 2 entries; committing 3 entries of the same translation
	// page must writeback at most once per batch thanks to batching.
	d := New(4096, 16)
	var cost int
	pairs := []addr.Mapping{{LPA: 0, PPA: 10}, {LPA: 1, PPA: 11}, {LPA: 2, PPA: 12}}
	c := d.Commit(pairs)
	cost += len(c.WriteIDs)
	if cost > 1 {
		t.Errorf("same-page dirty evictions cost %d writes, want ≤ 1", cost)
	}
}

func TestOverwriteTakesLatest(t *testing.T) {
	d := New(4096, 1024)
	commit(d, 5, 100, 1)
	commit(d, 5, 200, 1)
	tr, ok := d.Translate(5)
	if !ok || tr.PPA != 200 {
		t.Fatalf("translate = %+v", tr)
	}
}

func TestFullSizeBytes(t *testing.T) {
	d := New(4096, 1024)
	commit(d, 0, 0, 100)
	if got := d.FullSizeBytes(); got != 100*EntryBytes {
		t.Errorf("FullSizeBytes = %d, want %d", got, 100*EntryBytes)
	}
	// Overwrites do not grow the table.
	commit(d, 0, 999, 100)
	if got := d.FullSizeBytes(); got != 100*EntryBytes {
		t.Errorf("FullSizeBytes after overwrite = %d", got)
	}
}

func TestMemoryBounded(t *testing.T) {
	d := New(4096, 256)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		commit(d, addr.LPA(rng.Intn(100000)), addr.PPA(i), 1)
		if d.MemoryBytes() > 256 {
			t.Fatalf("CMT exceeded budget: %d", d.MemoryBytes())
		}
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	d := New(4096, 512)
	model := map[addr.LPA]addr.PPA{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		if rng.Intn(2) == 0 {
			lpa := addr.LPA(rng.Intn(4096))
			ppa := addr.PPA(rng.Intn(1 << 20))
			d.Commit([]addr.Mapping{{LPA: lpa, PPA: ppa}})
			model[lpa] = ppa
		} else {
			lpa := addr.LPA(rng.Intn(4096))
			tr, ok := d.Translate(lpa)
			want, inModel := model[lpa]
			if ok != inModel {
				t.Fatalf("op %d: Translate(%d) ok=%v model=%v", i, lpa, ok, inModel)
			}
			if ok && tr.PPA != want {
				t.Fatalf("op %d: Translate(%d) = %d, want %d", i, lpa, tr.PPA, want)
			}
		}
	}
}
