package leaftl

import (
	"fmt"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
)

// TestBudgetPropertyRandomWorkloads is the budget-enforcement property
// test: across random workloads and random budgets, MemoryBytes() ≤
// budget must hold after every single operation, the GMD bookkeeping
// must stay consistent, and the budgeted scheme must translate
// bit-identically to an unlimited reference.
func TestBudgetPropertyRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("plain/trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial*10 + 5)))
			gamma := rng.Intn(5)
			ref, bud := newScheme(gamma, 4096), newScheme(gamma, 4096)

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
			if bud.PagingStats().Faults == 0 && budget < ref.MemoryBytes() {
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

// TestCommitPagedBatch pins commit's batch order: a batch's groups
// are all loaded before the one table call, and the budget is enforced
// once after it. A batch whose groups together exceed the budget still
// commits, ends within the budget, and charges the same translation-page
// reads as committing its groups one by one. Its translation pages are
// smaller than any group's record, so every paged-out group's record
// fills a page its load reads.
func TestCommitPagedBatch(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		ref, batched, single := newScheme(4, 16), newScheme(4, 16), newScheme(4, 16)
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

// TestPagedMaintainChargesDirtyGroupsOnly pins Maintain's one
// persistence model: at any budget, bound or not, the first tick appends
// every dirty group's record to the journal, an immediately repeated tick
// appends and writes nothing, and a tick after touching one group
// appends only that group's record.
func TestPagedMaintainChargesDirtyGroupsOnly(t *testing.T) {
	// appends runs one Maintain tick and returns the records it appended.
	appends := func(s *Scheme, hostWrites uint64) (ftl.Cost, uint64) {
		before := s.JournalStats().Appends
		cost := s.Maintain(hostWrites)
		return cost, s.JournalStats().Appends - before
	}
	unbound := newScheme(0, 4096, WithCompactEvery(1))
	unbound.SetBudget(1 << 30)
	for b := 0; b < 4; b++ {
		unbound.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	if _, n := appends(unbound, 10); n != 4 {
		t.Fatalf("unbound budget: first tick appended %d records; want one per dirty group (4)", n)
	}
	if again, n := appends(unbound, 20); again.MetaWrites != 0 || n != 0 {
		t.Fatalf("unbound budget: idle tick rewrote %d pages, appended %d records", again.MetaWrites, n)
	}
	if unbound.TranslationPages() == 0 || len(unbound.PersistedGroups()) != 4 {
		t.Fatalf("unbound budget: %d translation pages, %d persisted groups after the writeback",
			unbound.TranslationPages(), len(unbound.PersistedGroups()))
	}

	s := newScheme(0, 4096, WithCompactEvery(1))
	for b := 0; b < 8; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.SetBudget(s.MemoryBytes() / 2) // binds: evicts immediately, paging on
	_, first := appends(s, 10)
	if first < 2 {
		t.Fatalf("first pressured tick appended %d records; want every dirty resident group", first)
	}
	if again, n := appends(s, 20); again.MetaWrites != 0 || n != 0 {
		t.Fatalf("idle maintenance tick rewrote %d pages, appended %d records", again.MetaWrites, n)
	}
	s.Commit(seq(3*256, 90000, 4))
	if _, after := appends(s, 30); after != 1 {
		t.Fatalf("dirty-group persistence appended %d records (first tick appended %d); want the one touched group's",
			after, first)
	}
	if s.TranslationPages() == 0 {
		t.Fatal("no translation pages after persistence")
	}
}

// TestPagedGroupsRestore pins the recovery round trip at the scheme
// level: once maintenance has persisted every group under a binding
// budget, a fresh scheme seeded with the persisted images translates
// exactly like the original, and one restored under a tighter budget
// demand-loads within it.
func TestPagedGroupsRestore(t *testing.T) {
	s := newScheme(4, 4096, WithCompactEvery(1))
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
	s.Maintain(10) // persist the dirty resident groups
	images := s.PersistedGroups()
	if len(images) != 8 {
		t.Fatalf("%d groups persisted, want 8", len(images))
	}

	fresh := newScheme(4, 4096)
	if err := fresh.RestoreGroups(images); err != nil {
		t.Fatal(err)
	}
	budgeted := newScheme(4, 4096)
	budgeted.SetBudget(full / 8)
	if err := budgeted.RestoreGroups(s.PersistedGroups()); err != nil { // a pager owns what it restores
		t.Fatal(err)
	}
	for l := 0; l < 8*256; l++ {
		a, aok := s.Translate(addr.LPA(l))
		for _, r := range []*Scheme{fresh, budgeted} {
			b, bok := r.Translate(addr.LPA(l))
			if aok != bok || a.PPA != b.PPA {
				t.Fatalf("Translate(%d): %v/%v vs %v/%v after the restore", l, b.PPA, bok, a.PPA, aok)
			}
		}
	}
	if budgeted.MemoryBytes() > full/8 {
		t.Fatalf("restore ignored the budget: %d > %d", budgeted.MemoryBytes(), full/8)
	}
	if err := budgeted.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}

// TestIdleMaintainPersistsNothing pins Maintain's dirty-marking: the
// compaction sweep dirties only the groups whose encoding it changed, so
// with nothing written in between, a second and a third maintenance
// round rewrite no translation page and append nothing to the journal —
// even for groups that rest more than one level deep, which the sweep
// used to report as changed every round.
func TestIdleMaintainPersistsNothing(t *testing.T) {
	// The journal is the only placement; the subtest keeps the name it had
	// when the image path ran beside it.
	t.Run("plain/journal=true", func(t *testing.T) {
		s := newScheme(4, 4096, WithCompactEvery(1))
		// Sequential groups under partial overwrites: every group ends up
		// layered (a long run below, short runs above), which is exactly what
		// a sweep leaves as it is.
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
		if first.MetaWrites == 0 && before.Appends == 0 {
			t.Fatal("first pressured round persisted nothing")
		}
		for round, writes := range []uint64{20, 30} {
			cost := s.Maintain(writes)
			after := s.JournalStats()
			if cost.MetaWrites != 0 || after.Appends != before.Appends {
				t.Fatalf("idle round %d: %d translation-page writes, journal appends %d -> %d",
					round, cost.MetaWrites, before.Appends, after.Appends)
			}
		}
		if err := s.CheckMapping(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPersistedGroupsAreCopies pins that PersistedGroups hands out
// copies: writebacks overwrite the pager's records in place, so a map
// taken before a commit and a maintenance round must keep its bytes. The
// overwrite turns layered groups into one sequential run each, so every
// new record fits the storage of the old one and lands in it.
func TestPersistedGroupsAreCopies(t *testing.T) {
	// The journal is the only placement; the subtest keeps the name it had
	// when the image path ran beside it.
	t.Run("journal=true", func(t *testing.T) {
		s := newScheme(4, 4096, WithCompactEvery(1))
		ppa := addr.PPA(0)
		for b := 0; b < 4; b++ {
			for _, off := range []int{0, 40, 100, 170} {
				s.Commit(seq(addr.LPA(b*256+off), ppa, 30))
				ppa += 50
			}
		}
		s.Maintain(10)
		held := s.PersistedGroups()
		want := make(map[addr.GroupID]string, len(held))
		for gid, img := range held {
			want[gid] = string(img)
		}
		if len(want) != 4 {
			t.Fatalf("%d groups persisted, want 4", len(want))
		}
		for b := 0; b < 4; b++ {
			s.Commit(seq(addr.LPA(b*256), 90000+addr.PPA(b*256), 256))
		}
		s.Maintain(20)
		for gid, img := range s.PersistedGroups() {
			if string(img) == want[gid] {
				t.Fatalf("group %d: the overwrite left its record unchanged; nothing to pin", gid)
			}
		}
		for gid, img := range held {
			if string(img) != want[gid] {
				t.Fatalf("group %d: a record taken before the writeback changed under its holder", gid)
			}
		}
	})
}
