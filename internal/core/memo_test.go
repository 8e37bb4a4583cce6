package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"leaftl/internal/addr"
)

// memoTable returns a small aged table with several levels per group: the
// full preset's γ = 0 one (presetGamma), or the paper preset's γ = 4 one
// with approximate segments. The cases that name a table "unverified"
// run the paper preset's.
func memoTable(full bool) (*Table, *ager) {
	tb := NewTable(presetGamma(4, full))
	a := newAger(11, 4)
	a.prefill(tb)
	a.age(tb, 3)
	return tb, a
}

// readGroup looks up every slot of group id, in order.
func readGroup(tb *Table, id addr.GroupID) (out [addr.GroupSize]answer) {
	for o := range out {
		out[o] = lookup(tb, addr.GroupBase(id)+addr.LPA(o))
	}
	return out
}

// fillMemos reads every resident group whole, which fills its memo, and
// returns the groups it filled.
func fillMemos(t *testing.T, tb *Table) []addr.GroupID {
	t.Helper()
	var ids []addr.GroupID
	tb.eachGroup(func(id addr.GroupID, g *group) {
		readGroup(tb, id)
		if !g.memo.valid {
			t.Fatalf("group %d: a whole-group read left no valid memo", id)
		}
		ids = append(ids, id)
	})
	return ids
}

// TestMemoInvalidation: after every call that changes a group, each slot
// of a group whose memo was filled answers through Lookup exactly as a
// fresh fill from its levels does. Each case must change some answer of a filled group (or, for a restore, replace the
// group), so a call that neither brings the memo up to date nor drops
// it shows as a stale answer.
func TestMemoInvalidation(t *testing.T) {
	cases := []struct {
		name string
		full bool
		call func(t *testing.T, tb *Table, a *ager)
	}{
		{"Update", true, func(t *testing.T, tb *Table, _ *ager) {
			tb.Update(mappings(addr.GroupBase(1)+3, 2, 1<<20, 40))
		}},
		{"Update/parallel", true, func(t *testing.T, tb *Table, _ *ager) {
			// One run in each of three groups, spread over helper
			// goroutines.
			tb.maxWorkers = 4
			var pairs []addr.Mapping
			for g := addr.GroupID(0); g < 3; g++ {
				pairs = append(pairs, mappings(addr.GroupBase(g)+17, 3, 2<<20+addr.PPA(g)<<8, 30)...)
			}
			tb.Update(pairs)
		}},
		{"Update/unverified", false, func(t *testing.T, tb *Table, _ *ager) {
			tb.Update(mappings(addr.GroupBase(2)+100, 1, 3<<20, 9))
		}},
		{"Compact", true, func(t *testing.T, tb *Table, _ *ager) {
			// The overwrite before the fill left the groups touched,
			// so Compact rebuilds them.
			tb.Compact()
		}},
		{"DropGroup+InstallGroup", true, func(t *testing.T, tb *Table, _ *ager) {
			img, err := tb.MarshalGroup(1)
			if err != nil {
				t.Fatal(err)
			}
			tb.DropGroup(1)
			if _, err := tb.InstallGroup(img); err != nil {
				t.Fatal(err)
			}
			if g := tb.lookupGroup(1); g.memo.valid || g.memo.slots != nil {
				t.Errorf("a restored group starts with a memo: %+v", g.memo)
			}
		}},
		{"insert", false, func(t *testing.T, tb *Table, a *ager) {
			for l, ppa := range a.truth {
				if _, res, ok := tb.Lookup(addr.LPA(l)); ok && res.Levels > 1 {
					tb.insert(Learned{Seg: Segment{SLPA: addr.LPA(l), I: float32(ppa + 7)}, LPAs: []addr.LPA{addr.LPA(l)}})
					return
				}
			}
			t.Fatal("no slot answered below the top level")
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb, a := memoTable(c.full)
			a.overwrite(tb)
			ids := fillMemos(t, tb)
			before := make(map[addr.GroupID][addr.GroupSize]answer)
			for _, id := range ids {
				before[id] = filled(tb, id)
			}
			c.call(t, tb, a)
			changed := false
			for _, id := range ids {
				if !tb.HasGroup(id) {
					continue
				}
				want := filled(tb, id)
				changed = changed || want != before[id]
				got := readGroup(tb, id)
				for o := range want {
					if got[o] != want[o] {
						t.Fatalf("group %d slot %d: Lookup = %+v, the levels answer %+v", id, o, got[o], want[o])
					}
				}
			}
			if !changed && c.name != "DropGroup+InstallGroup" {
				t.Fatal("the call changed no answer of a filled group; the case checks nothing")
			}
			if err := tb.CheckShape(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemoFillTrigger: on both presets' tables a group with no memo
// answers from its levels until it has translated memoFillLPAs LPAs
// since its last commit (each Lookup counts one), then from its memo; a
// commit before then restarts the count. After that each commit keeps
// the memo, patched to equal a fresh fill, at γ 0 and 4: short
// sequential, strided and irregular runs across the group (irregular
// ones learn approximate pieces at γ = 4) push victims down and open
// levels.
func TestMemoFillTrigger(t *testing.T) {
	for _, full := range []bool{true, false} {
		tb, _ := memoTable(full)
		t.Run(fmt.Sprintf("gamma%d", tb.Gamma()), func(t *testing.T) {
			g := tb.lookupGroup(0)
			ppa := addr.PPA(1 << 20)
			commit := func(i int) {
				n := 3 + i%5
				run := mappings(addr.LPA(37*i%200), uint32(1+i%3), ppa, n)
				for j := 1; i%2 == 1 && j < n; j++ {
					run[j].LPA = run[j-1].LPA + addr.LPA(1+(i+j)%3)
				}
				tb.Update(run)
				ppa += addr.PPA(n)
			}
			lookups := func(n int) {
				for i := 0; i < n; i++ {
					tb.Lookup(addr.LPA(i % addr.GroupSize))
				}
			}
			lookups(memoFillLPAs - 1)
			commit(0)
			lookups(memoFillLPAs - 1)
			if g.memo.valid {
				t.Fatalf("memo filled %d LPAs after the last commit, trigger %d", memoFillLPAs-1, memoFillLPAs)
			}
			lookups(1)
			if !g.memo.valid {
				t.Fatalf("no memo %d LPAs after the last commit", memoFillLPAs)
			}
			for i := 1; i <= 40; i++ {
				commit(i)
				if !g.memo.valid {
					t.Fatalf("commit %d dropped the group's memo", i)
				}
				if got, want := readGroup(tb, 0), filled(tb, 0); got != want {
					t.Fatalf("commit %d: the patched memo differs from a fresh fill", i)
				}
			}
		})
	}
}

// memoCounts counts the cases of each kind that patches, rewrites and
// kept memos took while it was installed as memoHook.
type memoCounts [memoCases]atomic.Int64

// hook installs c as memoHook until the test ends.
func (c *memoCounts) hook(t *testing.T) {
	memoHook = func(k memoCase, n int) { c[k].Add(int64(n)) }
	t.Cleanup(func() { memoHook = nil })
}

// TestMemoSurvivesCommits: on both presets' aged tables with every memo
// filled, every valid memo equals a fresh fill from its group's levels
// (CheckShape) after each commit of overwrite and relocation rounds and
// after Compact, committed by one worker or spread over four. On the
// full preset's γ = 0 table the rounds must exercise every rule that
// brings a memo up to date: committed slots, victims joining level 1
// with and without a fresh level above them, a commit that adds a level
// (and moves no other slot), a shedding rebuild's rewrite and a no-op
// rebuild that keeps the memo. On the paper preset's γ = 4 table some
// Update must leave a valid memo answering an approximate slot from
// below the top that it answered from the top before: an approximate
// victim pushed down. The gamma4 case requires
// Compact's shedding rebuilds to keep the memos of groups that keep an
// approximate claim.
func TestMemoSurvivesCommits(t *testing.T) {
	names := [memoCases]string{
		memoCommitted: "committed slots", memoJoined: "victims joining level 1",
		memoJoinedUnder: "victims joining level 1 under a fresh level", memoGrew: "commits adding a level",
		memoRewritten: "shedding rebuilds", memoKept: "no-op rebuilds",
	}
	for _, preset := range []string{"full", "paper"} {
		for _, workers := range []int{1, 4} {
			// The full preset's subtests keep their names from before the
			// paper preset joined: workers1 and workers4.
			name := fmt.Sprintf("workers%d", workers)
			if preset != "full" {
				name = preset + "/" + name
			}
			t.Run(name, func(t *testing.T) {
				var counts memoCounts
				counts.hook(t)
				tb, a := memoTable(preset == "full")
				tb.maxWorkers = workers
				check := func(when string) {
					if err := tb.CheckShape(); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				}
				pushed, before := 0, validMemos(tb)
				a.check = func() {
					check("Update")
					for id, was := range before {
						pushed += pushedApprox(tb.lookupGroup(id), &was)
					}
					before = validMemos(tb)
				}
				for round := 0; round < 6; round++ {
					fillMemos(t, tb)
					before = validMemos(tb)
					a.age(tb, 1)
					tb.Compact()
					check("Compact")
				}
				for k := range names {
					t.Logf("%s: %d", names[k], counts[k].Load())
					if preset == "full" && counts[k].Load() == 0 {
						t.Errorf("no %s", names[k])
					}
				}
				t.Logf("approximate slots pushed below the top: %d", pushed)
				if preset == "paper" && pushed == 0 {
					t.Error("no Update left a valid memo answering an approximate slot from below the top that it answered from the top before")
				}
			})
		}
	}
	t.Run("gamma4", func(t *testing.T) {
		tb, a := memoTable(false)
		kept := 0
		for round := 0; round < 6; round++ {
			a.age(tb, 1)
			type shape struct{ bytes, levels int }
			before := make(map[addr.GroupID]shape)
			for _, id := range fillMemos(t, tb) {
				g := tb.lookupGroup(id)
				before[id] = shape{g.footprint(), g.depth()}
			}
			tb.Compact()
			if err := tb.CheckShape(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for id, was := range before {
				g := tb.lookupGroup(id)
				if !g.memo.valid || len(g.crb.entries) == 0 || was == (shape{g.footprint(), g.depth()}) {
					continue
				}
				// Compact shed the group, which kept an approximate claim.
				kept++
				if got, want := readGroup(tb, id), filled(tb, id); got != want {
					t.Fatalf("round %d, group %d: the rewritten memo differs from a fresh fill", round, id)
				}
			}
		}
		t.Logf("shedding rebuilds that kept an approximate claim and the memo: %d", kept)
		if kept == 0 {
			t.Fatal("no shedding rebuild kept the memo of a group with an approximate claim")
		}
	})
}

// validMemos copies the valid memos of tb's groups.
func validMemos(tb *Table) map[addr.GroupID][addr.GroupSize]uint64 {
	out := make(map[addr.GroupID][addr.GroupSize]uint64)
	tb.eachGroup(func(id addr.GroupID, g *group) {
		if g.memo.valid {
			out[id] = *g.memo.slots
		}
	})
	return out
}

// pushedApprox counts the slots of g's valid memo that answered an
// approximate prediction from the top in was and answer one from below
// the top now.
func pushedApprox(g *group, was *[addr.GroupSize]uint64) (n int) {
	const top = memoApprox | memoTop
	if !g.memo.valid {
		return 0
	}
	for o, v := range g.memo.slots {
		if was[o]&top == top && v&top == memoApprox {
			n++
		}
	}
	return n
}

// TestMemoAllocatesOnce: a group allocates its memo at its first fill
// and reuses it after that: a commit patches it in place at γ 0 and 4,
// and a refill after a drop writes the same array.
func TestMemoAllocatesOnce(t *testing.T) {
	for _, full := range []bool{true, false} {
		tb, _ := memoTable(full)
		readGroup(tb, 0)
		g := tb.lookupGroup(0)
		slots := g.memo.slots
		if slots == nil {
			t.Fatal("no memo after a whole-group read")
		}
		for i := 0; i < 20; i++ {
			tb.Update(mappings(7, 1, addr.PPA(1<<20+4*i), 4))
			readGroup(tb, 0)
			if g.memo.slots != slots || !g.memo.valid {
				t.Fatalf("γ = %d: after a commit the group's memo is not the one it allocated", tb.Gamma())
			}
		}
		if avg := testing.AllocsPerRun(50, func() {
			g.memo.changed()
			readGroup(tb, 0)
		}); avg != 0 {
			t.Errorf("γ = %d: a refill allocates %.2f objects, want 0", tb.Gamma(), avg)
		}
	}
}

// TestAuditsLeaveMemosAlone: CheckShape and AuditExact resolve the levels
// themselves: they neither fill a memo nor answer from one. A corrupted
// memo slot fails CheckShape.
func TestAuditsLeaveMemosAlone(t *testing.T) {
	tb, a := memoTable(true)
	truth := func(l addr.LPA) (addr.PPA, bool) { return a.truth[l], true }
	for i := 0; i < 3; i++ {
		if err := tb.CheckShape(); err != nil {
			t.Fatal(err)
		}
		if err := tb.AuditExact(truth); err != nil {
			t.Fatal(err)
		}
	}
	tb.eachGroup(func(id addr.GroupID, g *group) {
		if g.memo.slots != nil || g.memo.reads != 0 {
			t.Fatalf("group %d: the audits read through the memo: %+v", id, g.memo)
		}
	})
	fillMemos(t, tb)
	if err := tb.CheckShape(); err != nil {
		t.Fatalf("intact memos: %v", err)
	}
	g := tb.lookupGroup(2)
	g.memo.slots[77] ^= 1
	if err := tb.CheckShape(); err == nil {
		t.Fatal("CheckShape accepted a memo slot that differs from the levels")
	}
	g.memo.changed()
	if err := tb.CheckShape(); err != nil {
		t.Fatalf("a dropped memo is not checked: %v", err)
	}
}
