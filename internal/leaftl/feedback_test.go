package leaftl

import (
	"fmt"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/core"
)

// TestBitmapFeedbackProperty is the property that makes read feedback
// unnecessary in the full preset: across random irregular workloads,
// with and without a DRAM budget, a scheme built WithExactBitmap at
// γ = 8 reports γ = 0, no translation is approximate and every one lands
// on the true page, the scheme's audit agrees, and the GMD and budget
// invariants hold after every Maintain.
func TestBitmapFeedbackProperty(t *testing.T) {
	const gamma = 8
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			s := newScheme(gamma, 4096, WithExactBitmap(), WithCompactEvery(512))
			if s.Gamma() != 0 {
				t.Fatalf("scheme built WithExactBitmap at γ=%d reports γ=%d, want 0", gamma, s.Gamma())
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
				s.Commit(pairs)
			}

			read := func(lpa addr.LPA) {
				want, mapped := truth[lpa]
				tr, ok := s.Translate(lpa)
				if ok != mapped {
					t.Fatalf("Translate(%d) ok=%v, mapped=%v", lpa, ok, mapped)
				}
				if !ok {
					return
				}
				if tr.Approx {
					t.Fatalf("LPA %d: approximate answer (%+v)", lpa, tr)
				}
				if tr.PPA != want {
					t.Fatalf("answer %d for LPA %d, want %d (%+v)", tr.PPA, lpa, want, tr)
				}
			}

			oracle := func(l addr.LPA) (addr.PPA, bool) { p, ok := truth[l]; return p, ok }
			maintain := func() {
				s.Maintain(writes)
				if err := s.CheckMapping(); err != nil {
					t.Fatal(err)
				}
				if err := s.AuditExact(oracle); err != nil {
					t.Fatal(err)
				}
				for gid, img := range s.PersistedGroups() {
					if _, err := core.NewTable(0).InstallGroup(img); err != nil {
						t.Fatalf("persisted group %d does not decode: %v", gid, err)
					}
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
					// Clamp the budget mid-run: evictions and demand loads
					// now interleave with the commits.
					s.SetBudget(s.MemoryBytes()/2 + 1)
					budgeted = true
				}
				if budgeted {
					if err := s.CheckMapping(); err != nil {
						t.Fatalf("after round %d: %v", round, err)
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
