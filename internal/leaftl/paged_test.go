package leaftl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// pagedScheme is the surface the budget property test drives, satisfied
// by both scheme flavors.
type pagedScheme interface {
	ftl.GroupPaged
	Gamma() int
}

// TestBudgetPropertyRandomWorkloads is the budget-enforcement property
// test: across random workloads and random budgets, MemoryBytes() ≤
// budget must hold after every single operation, the GMD bookkeeping
// must stay consistent, and the budgeted scheme must translate
// bit-identically to an unlimited reference.
func TestBudgetPropertyRandomWorkloads(t *testing.T) {
	for _, flavor := range []string{"plain", "sharded"} {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", flavor, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(trial*10 + len(flavor))))
				gamma := rng.Intn(5)
				var ref, bud pagedScheme
				if flavor == "plain" {
					ref = New(gamma, 4096)
					bud = New(gamma, 4096)
				} else {
					ref = NewSharded(gamma, 4096, 1+rng.Intn(8))
					bud = NewSharded(gamma, 4096, 1+rng.Intn(8))
				}

				logical := 48 * 256
				var ppa addr.PPA
				commit := func(lpas []addr.LPA) {
					pairs := make([]addr.Mapping, len(lpas))
					for i, l := range lpas {
						pairs[i] = addr.Mapping{LPA: l, PPA: ppa + addr.PPA(i)}
					}
					ppa += addr.PPA(len(lpas))
					ref.Commit(pairs)
					bud.Commit(pairs)
				}
				// Warm sequentially, then apply a harsh random budget.
				for b := 0; b < 48; b++ {
					lpas := make([]addr.LPA, 256)
					for i := range lpas {
						lpas[i] = addr.LPA(b*256 + i)
					}
					commit(lpas)
				}
				budget := 1 + rng.Intn(ref.MemoryBytes())
				bud.SetBudget(budget)

				check := func(op int) {
					if m := bud.MemoryBytes(); m > budget {
						t.Fatalf("op %d: MemoryBytes %d > budget %d", op, m, budget)
					}
					if err := bud.CheckMapping(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
				hostWrites := uint64(0)
				for op := 0; op < 6000; op++ {
					switch r := rng.Intn(100); {
					case r < 40:
						start := rng.Intn(logical - 32)
						n := 1 + rng.Intn(32)
						lpas := make([]addr.LPA, 0, n)
						for i := 0; i < n; i++ {
							lpas = append(lpas, addr.LPA(start+i))
						}
						commit(lpas)
						hostWrites += uint64(n)
					case r < 95:
						l := addr.LPA(rng.Intn(logical))
						a, aok := ref.Translate(l)
						b, bok := bud.Translate(l)
						if aok != bok || a.PPA != b.PPA || a.Approx != b.Approx {
							t.Fatalf("op %d: Translate(%d) diverges: %v/%v vs %v/%v",
								op, l, b.PPA, bok, a.PPA, aok)
						}
					default:
						// Periodic maintenance at a random cadence.
						ref.Maintain(hostWrites)
						bud.Maintain(hostWrites)
					}
					check(op)
				}
				// Every budgeted run under MemoryBytes must have produced
				// real paging traffic to be a meaningful property test.
				var faults uint64
				switch s := bud.(type) {
				case *Scheme:
					faults = s.PagingStats().Faults
				case *Sharded:
					faults = s.PagingStats().Faults
				}
				if faults == 0 && budget < ref.MemoryBytes() {
					t.Fatalf("binding budget %d (< %d) produced no faults", budget, ref.MemoryBytes())
				}
				// Full final sweep.
				for l := 0; l < logical; l++ {
					a, aok := ref.Translate(addr.LPA(l))
					b, bok := bud.Translate(addr.LPA(l))
					if aok != bok || a.PPA != b.PPA {
						t.Fatalf("final Translate(%d) diverges: %v/%v vs %v/%v", l, b.PPA, bok, a.PPA, aok)
					}
				}
				if bud.FullSizeBytes() < bud.MemoryBytes() {
					t.Fatalf("FullSizeBytes %d < MemoryBytes %d", bud.FullSizeBytes(), bud.MemoryBytes())
				}
			})
		}
	}
}

// TestCommitPagedBatch pins commitPaged's batch order: a batch's groups
// are all loaded before the one table call, and the budget is enforced
// once after it. A batch whose groups together exceed the budget still
// commits, ends within the budget, and charges the same translation-page
// reads as committing its groups one by one.
func TestCommitPagedBatch(t *testing.T) {
	for _, flavor := range []string{"plain", "sharded"} {
		t.Run(flavor, func(t *testing.T) {
			mk := func() pagedScheme {
				if flavor == "plain" {
					return New(4, 4096)
				}
				return NewSharded(4, 4096, 4)
			}
			ref, batched, single := New(4, 4096), mk(), mk()
			commit := func(pairs []addr.Mapping) {
				ref.Commit(pairs)
				batched.Commit(pairs)
				single.Commit(pairs)
			}
			// Sixteen groups of eight short runs each.
			ppa := addr.PPA(0)
			for g := 0; g < 16; g++ {
				for r := 0; r < 8; r++ {
					commit(seq(addr.LPA(g*256+r*32), ppa, 16))
					ppa += 16
				}
			}
			// Two groups fit. The CLOCK sweep evicts from the oldest, so
			// groups 0–7 are all paged out.
			budget := 2 * ref.Table().GroupFootprint(0)
			batched.SetBudget(budget)
			single.SetBudget(budget)

			var pairs []addr.Mapping
			for g := 0; g < 8; g++ {
				for i := 0; i < 40; i++ {
					pairs = append(pairs, addr.Mapping{LPA: addr.LPA(g*256 + 3*i), PPA: ppa})
					ppa++
				}
			}
			ref.Commit(pairs)
			need := 0
			for g := addr.GroupID(0); g < 8; g++ {
				need += ref.Table().GroupFootprint(g)
			}
			if need <= budget {
				t.Fatalf("the batch's groups take %d B, budget %d B: nothing to pin", need, budget)
			}

			got := batched.Commit(pairs)
			want := 0
			for g := 0; g < 8; g++ {
				want += single.Commit(pairs[g*40 : (g+1)*40]).MetaReads
			}
			if got.MetaReads != want || want < 8 {
				t.Fatalf("batch charged %d translation-page reads, one by one %d (want ≥ 8)", got.MetaReads, want)
			}
			if m := batched.MemoryBytes(); m > budget {
				t.Fatalf("MemoryBytes %d > budget %d after the batch", m, budget)
			}
			if err := batched.CheckMapping(); err != nil {
				t.Fatal(err)
			}
			for _, m := range pairs {
				if tr, ok := batched.Translate(m.LPA); !ok || tr.PPA != m.PPA {
					t.Fatalf("Translate(%d) = %d/%v after the batch, want %d", m.LPA, tr.PPA, ok, m.PPA)
				}
			}
		})
	}
}

// TestPagedMaintainChargesDirtyGroupsOnly pins the pressured Maintain
// contract: once the budget has bound, the first tick persists every
// dirty resident group, an immediately repeated tick writes nothing,
// and a tick after touching one group rewrites only that group's
// translation page. A never-binding budget keeps the pre-paging
// whole-table persistence instead.
func TestPagedMaintainChargesDirtyGroupsOnly(t *testing.T) {
	unbound := New(0, 4096, WithCompactEvery(1))
	unbound.SetBudget(1 << 30)
	unbound.Commit(seq(0, 0, 256))
	legacy := unbound.Maintain(10)
	if legacy.MetaWrites == 0 {
		t.Fatal("unbound budget: maintenance did not persist the table")
	}
	if again := unbound.Maintain(20); again.MetaWrites != legacy.MetaWrites {
		t.Fatalf("unbound budget: persistence charge changed %d -> %d (whole-table model)",
			legacy.MetaWrites, again.MetaWrites)
	}
	if unbound.TranslationPages() != 0 {
		t.Fatal("unbound budget must not materialize group images")
	}

	s := New(0, 4096, WithCompactEvery(1))
	for b := 0; b < 8; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.SetBudget(s.MemoryBytes() / 2) // binds: evicts immediately, paging on
	first := s.Maintain(10)
	if first.MetaWrites < 2 {
		t.Fatalf("first pressured tick persisted %d pages; want every dirty resident group", first.MetaWrites)
	}
	if again := s.Maintain(20); again.MetaWrites != 0 {
		t.Fatalf("idle maintenance tick rewrote %d pages", again.MetaWrites)
	}
	s.Commit(seq(3*256, 90000, 4))
	after := s.Maintain(30)
	if after.MetaWrites == 0 || after.MetaWrites >= first.MetaWrites {
		t.Fatalf("dirty-group persistence wrote %d pages (first tick wrote %d)",
			after.MetaWrites, first.MetaWrites)
	}
	if s.TranslationPages() == 0 {
		t.Fatal("no translation pages after persistence")
	}
}

// TestPagedSnapshotRestore pins that snapshots taken under a binding
// budget capture paged-out groups, and that restoring re-enforces the
// budget.
func TestPagedSnapshotRestore(t *testing.T) {
	s := New(4, 4096)
	for b := 0; b < 8; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.Commit(seq(100, 70000, 16))
	full := s.FullSizeBytes()
	s.SetBudget(full / 4)
	s.Commit(seq(200, 80000, 1)) // trigger enforcement
	if s.MemoryBytes() > full/4 {
		t.Fatalf("budget not enforced: %d > %d", s.MemoryBytes(), full/4)
	}

	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(0, 4096)
	if err := fresh.Restore(img); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 8*256; l++ {
		a, aok := s.Translate(addr.LPA(l))
		b, bok := fresh.Translate(addr.LPA(l))
		if aok != bok || a.PPA != b.PPA {
			t.Fatalf("Translate(%d): %v/%v vs %v/%v after snapshot round trip", l, b.PPA, bok, a.PPA, aok)
		}
	}

	budgeted := New(0, 4096)
	budgeted.SetBudget(full / 8)
	if err := budgeted.Restore(img); err != nil {
		t.Fatal(err)
	}
	if budgeted.MemoryBytes() > full/8 {
		t.Fatalf("restore ignored the budget: %d > %d", budgeted.MemoryBytes(), full/8)
	}
	if err := budgeted.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPagedConcurrentTranslate hammers a budgeted sharded scheme
// with concurrent translations (the ftl.Concurrent contract) while
// groups fault in and out; run under -race this pins the pager-mutex
// serialization and the lock-free fast-path handoff.
func TestShardedPagedConcurrentTranslate(t *testing.T) {
	s := NewSharded(0, 4096, 4)
	logical := 16 * 256
	for b := 0; b < 16; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.SetBudget(s.MemoryBytes() / 3)
	s.Commit(seq(0, 90000, 1)) // force enforcement so paging pressure is on

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				l := addr.LPA(rng.Intn(logical))
				tr, ok := s.Translate(l)
				if !ok {
					panic(fmt.Sprintf("lost mapping for %d", l))
				}
				if l == 0 {
					if tr.PPA != 90000 {
						panic(fmt.Sprintf("stale translation for 0: %d", tr.PPA))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes() > s.FullSizeBytes() {
		t.Fatal("resident exceeds full size")
	}
}

// TestIdleMaintainPersistsNothing pins Maintain's dirty-marking: the
// compaction sweep dirties only the groups whose encoding it changed, so
// with nothing written in between, a second and a third maintenance
// round rewrite no translation page and append nothing to the journal —
// even for groups that rest more than one level deep, which the sweep
// used to report as changed every round (the full-image path rewrote
// them every interval; the journal only hid it by dropping identical
// images).
func TestIdleMaintainPersistsNothing(t *testing.T) {
	type scheme interface {
		pagedScheme
		ftl.Journaled
	}
	for _, flavor := range []string{"plain", "sharded"} {
		for _, journal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/journal=%v", flavor, journal), func(t *testing.T) {
				opts := []Option{WithCompactEvery(1)}
				if journal {
					opts = append(opts, WithJournal())
				}
				var s scheme
				if flavor == "plain" {
					s = New(4, 4096, opts...)
				} else {
					s = NewSharded(4, 4096, 4, opts...)
				}
				s.ConfigureJournal(64, 4096)
				// Sequential groups under partial overwrites: every group
				// ends up layered (a long run below, short runs above),
				// which is exactly what a sweep leaves as it is.
				ppa := addr.PPA(0)
				for b := 0; b < 8; b++ {
					s.Commit(seq(addr.LPA(b*256), ppa, 256))
					ppa += 256
				}
				for b := 0; b < 8; b++ {
					for _, off := range []int{10, 90, 170} {
						s.Commit(seq(addr.LPA(b*256+off), ppa, 20))
						ppa += 20
					}
				}
				s.SetBudget(s.MemoryBytes() * 3 / 4) // binds: paging on
				first := s.Maintain(10)
				before := s.JournalStats()
				if first.MetaWrites == 0 && before.Appends+before.Bases == 0 {
					t.Fatal("first pressured round persisted nothing")
				}
				for round, writes := range []uint64{20, 30} {
					cost := s.Maintain(writes)
					after := s.JournalStats()
					if cost.MetaWrites != 0 || after.Appends != before.Appends || after.Bases != before.Bases {
						t.Fatalf("idle round %d: %d translation-page writes, journal appends %d -> %d, bases %d -> %d",
							round, cost.MetaWrites, before.Appends, after.Appends, before.Bases, after.Bases)
					}
				}
				if err := s.CheckMapping(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
