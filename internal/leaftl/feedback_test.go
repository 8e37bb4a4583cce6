package leaftl

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// feedbackScheme is the surface the bitmap feedback property test drives.
type feedbackScheme interface {
	pagedScheme
	ftl.MissReporter
	Snapshot() ([]byte, error)
}

// TestBitmapFeedbackProperty is the read-feedback correctness property:
// across random workloads — plain and sharded, with and without a DRAM
// budget — every translation stays within the error bound (exact and
// bitmap-vouched answers exactly), repairs keep the GMD and budget
// invariants after every Maintain, and the plain and sharded flavors
// stay bit-identical under identical operation streams.
func TestBitmapFeedbackProperty(t *testing.T) {
	const gamma = 8
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			schemes := []feedbackScheme{
				New(gamma, 4096, WithExactBitmap(), WithCompactEvery(512)),
				NewSharded(gamma, 4096, 1+rng.Intn(8), WithExactBitmap(), WithCompactEvery(512)),
			}

			logical := 24 * 256
			truth := make(map[addr.LPA]addr.PPA)
			var ppa addr.PPA
			var writes uint64

			commit := func(lpas []addr.LPA) {
				pairs := make([]addr.Mapping, 0, len(lpas))
				seen := map[addr.LPA]bool{}
				for _, l := range lpas {
					if !seen[l] {
						seen[l] = true
						pairs = append(pairs, addr.Mapping{LPA: l, PPA: 0})
					}
				}
				sortMappings(pairs)
				for i := range pairs {
					pairs[i].PPA = ppa + addr.PPA(i)
					truth[pairs[i].LPA] = pairs[i].PPA
				}
				ppa += addr.PPA(len(pairs))
				writes += uint64(len(pairs))
				for _, s := range schemes {
					s.Commit(pairs)
				}
			}

			read := func(lpa addr.LPA) {
				want, mapped := truth[lpa]
				var prev ftl.Translation
				var prevOK bool
				for si, s := range schemes {
					tr, ok := s.Translate(lpa)
					if ok != mapped {
						t.Fatalf("scheme %d: Translate(%d) ok=%v, mapped=%v", si, lpa, ok, mapped)
					}
					if ok {
						if (!tr.Approx || tr.Exact) && tr.PPA != want {
							t.Fatalf("scheme %d: exact answer %d for LPA %d, want %d (%+v)", si, tr.PPA, lpa, want, tr)
						}
						d := int64(tr.PPA) - int64(want)
						if d < -gamma || d > gamma {
							t.Fatalf("scheme %d: LPA %d predicted %d, want %d (outside ±%d)", si, lpa, tr.PPA, want, gamma)
						}
						// The device's feedback, modeled: bitmap-vouched
						// reads are not reported.
						if !tr.Exact {
							s.NoteRead(lpa, tr.PPA, want, tr.Approx, false)
						}
					}
					if si > 0 && (ok != prevOK || tr.PPA != prev.PPA || tr.Approx != prev.Approx || tr.Exact != prev.Exact) {
						t.Fatalf("sharded diverged from plain at LPA %d: %+v/%v vs %+v/%v",
							lpa, tr, ok, prev, prevOK)
					}
					prev, prevOK = tr, ok
				}
			}

			maintain := func() {
				var snaps [][]byte
				for si, s := range schemes {
					s.Maintain(writes)
					if err := s.CheckMapping(); err != nil {
						t.Fatalf("scheme %d: %v", si, err)
					}
					snap, err := s.Snapshot()
					if err != nil {
						t.Fatalf("scheme %d: %v", si, err)
					}
					snaps = append(snaps, snap)
				}
				if !bytes.Equal(snaps[0], snaps[1]) {
					t.Fatal("plain and sharded tables diverged")
				}
			}

			budgeted := false
			for round := 0; round < 60; round++ {
				// Irregular write bursts create approximate segments.
				lpas := make([]addr.LPA, 0, 64)
				base := rng.Intn(logical - 512)
				l := addr.LPA(base)
				for len(lpas) < 64 {
					l += addr.LPA(1 + rng.Intn(3))
					lpas = append(lpas, l)
				}
				commit(lpas)
				// Skewed reads hammer a hot range so reads repeat.
				hot := addr.LPA(rng.Intn(logical / 2))
				for i := 0; i < 120; i++ {
					off := addr.LPA(rng.Intn(256))
					if rng.Float64() < 0.3 {
						off = addr.LPA(rng.Intn(logical))
					}
					read((hot + off) % addr.LPA(logical))
				}
				if round%7 == 3 {
					maintain()
				}
				if !budgeted && round == 20 {
					// Clamp both flavors identically mid-run: evictions and
					// demand loads now interleave with feedback and repairs.
					budget := schemes[0].MemoryBytes()/2 + 1
					for _, s := range schemes {
						s.SetBudget(budget)
					}
					budgeted = true
				}
				if budgeted {
					for si, s := range schemes {
						if err := s.CheckMapping(); err != nil {
							t.Fatalf("scheme %d after round %d: %v", si, round, err)
						}
					}
				}
			}
			maintain()
		})
	}
}

// sortMappings sorts a batch by LPA (the scheme contract).
func sortMappings(pairs []addr.Mapping) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].LPA < pairs[j-1].LPA; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// TestBitmapConcurrentTranslate exercises the sharded scheme's
// concurrent read path while the serialized mutation path (commits,
// feedback with repairs, maintenance) runs — the race detector guards
// the shard/pager locking.
func TestBitmapConcurrentTranslate(t *testing.T) {
	s := NewSharded(8, 4096, 8, WithExactBitmap(), WithCompactEvery(256))
	const logical = 16 * 256
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				s.Translate(addr.LPA(rng.Intn(logical)))
			}
		}(int64(w))
	}

	rng := rand.New(rand.NewSource(99))
	var ppa addr.PPA
	var writes uint64
	for round := 0; round < 200; round++ {
		pairs := make([]addr.Mapping, 0, 32)
		l := addr.LPA(rng.Intn(logical - 256))
		for len(pairs) < 32 {
			l += addr.LPA(1 + rng.Intn(3))
			if int(l) >= logical {
				break
			}
			pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
			ppa++
		}
		if len(pairs) == 0 {
			continue
		}
		writes += uint64(len(pairs))
		s.Commit(pairs)
		for _, m := range pairs[:4] {
			if tr, ok := s.Translate(m.LPA); ok && tr.Approx && !tr.Exact {
				s.NoteRead(m.LPA, tr.PPA, m.PPA, true, false)
			}
			// A miss one page off, so repairs run alongside the
			// concurrent translators.
			s.NoteRead(m.LPA, m.PPA+1, m.PPA, true, false)
		}
		s.Maintain(writes)
		if round == 100 {
			s.SetBudget(s.MemoryBytes()/2 + 1)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}
