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

// fillMemos reads every resident group whole, which fills its memo, and
// returns the groups it filled.
func fillMemos(t *testing.T, tb *Table) []addr.GroupID {
	t.Helper()
	var out [addr.GroupSize]Answer
	var ids []addr.GroupID
	tb.eachGroup(func(id addr.GroupID, g *group) {
		tb.LookupRun(addr.GroupBase(id), out[:])
		if !g.memo.valid {
			t.Fatalf("group %d: a whole-group read left no valid memo", id)
		}
		ids = append(ids, id)
	})
	return ids
}

// swept returns group id's answers from a fresh sweep of its levels.
func swept(tb *Table, id addr.GroupID) (out [addr.GroupSize]Answer) {
	var slots [addr.GroupSize]uint64
	tb.sweep(tb.lookupGroup(id), addr.GroupBase(id), slots[:])
	for o, v := range slots {
		out[o].PPA, out[o].Res, out[o].OK = unpack(v)
	}
	return out
}

// TestMemoInvalidation: after every call that changes a group, each slot
// of a group whose memo was filled answers, through Lookup and
// LookupRun, exactly as a fresh sweep of its levels does. Each case must
// change some answer of a filled group (or, for a restore, replace the
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
			// so the sweep rebuilds them.
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
			before := make(map[addr.GroupID][addr.GroupSize]Answer)
			for _, id := range ids {
				before[id] = swept(tb, id)
			}
			c.call(t, tb, a)
			changed := false
			var out [addr.GroupSize]Answer
			for _, id := range ids {
				if !tb.HasGroup(id) {
					continue
				}
				want := swept(tb, id)
				changed = changed || want != before[id]
				base := addr.GroupBase(id)
				for o := range want {
					ppa, res, ok := tb.Lookup(base + addr.LPA(o))
					if got := (Answer{PPA: ppa, Res: res, OK: ok}); got != want[o] {
						t.Fatalf("group %d slot %d: Lookup = %+v, the levels answer %+v", id, o, got, want[o])
					}
				}
				tb.LookupRun(base, out[:])
				if out != want {
					t.Fatalf("group %d: LookupRun differs from the levels' answers", id)
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

// TestMemoFillTrigger: a group answers from its levels until it has
// translated its trigger's worth of LPAs since its memo was last dropped
// (Lookup counts one, LookupRun the window), then from its memo. A drop
// restarts the count; a fill whose memo answered fewer than memoFillLPAs
// LPAs before the drop doubles the trigger, up to a whole group's worth,
// and one that answered more halves it again. The sequence runs on the
// γ = 4 table, where every commit drops the memo. On the γ = 0 table a
// commit patches the memo instead: it stays valid across Update and
// equals a fresh sweep.
func TestMemoFillTrigger(t *testing.T) {
	var out [addr.GroupSize]Answer
	ppa := addr.PPA(1 << 20)
	t.Run("gamma4", func(t *testing.T) {
		tb, _ := memoTable(false)
		g := tb.lookupGroup(0)
		lookups := func(n int) {
			for i := 0; i < n; i++ {
				tb.Lookup(addr.LPA(i % addr.GroupSize))
			}
		}
		change := func() {
			tb.Update(mappings(5, 1, ppa, 3))
			ppa += 3
			if g.memo.valid {
				t.Fatal("a γ = 4 commit into the group left its memo valid")
			}
		}
		// fillsAt requires the group to fill its memo at the trigger-th
		// translated LPA, the last of them read by read.
		fillsAt := func(trigger int, read func(n int)) {
			t.Helper()
			read(trigger - 1)
			if g.memo.valid {
				t.Fatalf("memo filled after %d LPAs, trigger %d", trigger-1, trigger)
			}
			read(1)
			if !g.memo.valid {
				t.Fatalf("no memo after %d LPAs", trigger)
			}
		}
		windows := func(n int) { tb.LookupRun(0, out[:n]) }

		fillsAt(memoFillLPAs, lookups)
		lookups(memoFillLPAs) // the fill pays
		change()
		fillsAt(memoFillLPAs, windows)
		change() // the memo answered nothing: the trigger doubles
		fillsAt(2*memoFillLPAs, lookups)
		windows(memoFillLPAs) // pays: the trigger halves
		change()
		fillsAt(memoFillLPAs, lookups)
		for i := 0; i < 8; i++ { // fills that answer nothing
			change()
			lookups(memoFillLPAs << g.memo.backoff)
		}
		if trigger := memoFillLPAs << g.memo.backoff; trigger > addr.GroupSize || 2*trigger <= addr.GroupSize {
			t.Fatalf("after fills that never paid the trigger is %d, want the largest doubling within %d", trigger, addr.GroupSize)
		}
	})
	t.Run("gamma0", func(t *testing.T) {
		tb, _ := memoTable(true)
		g := tb.lookupGroup(0)
		tb.LookupRun(0, out[:])
		for i := 0; i < 40; i++ {
			// Short sequential and strided runs across the group, so
			// commits push victims down and open levels.
			n := 3 + i%5
			tb.Update(mappings(addr.LPA(37*i%200), uint32(1+i%3), ppa, n))
			ppa += addr.PPA(n)
			if !g.memo.valid {
				t.Fatalf("commit %d into the γ = 0 group dropped its memo", i)
			}
			tb.LookupRun(0, out[:])
			if want := swept(tb, 0); out != want {
				t.Fatalf("commit %d: the patched memo differs from a fresh sweep", i)
			}
		}
	})
}

// memoCounts counts the cases of each kind that patches, rewrites and
// kept memos took while it was installed as memoHook.
type memoCounts [memoCases]atomic.Int64

// hook installs c as memoHook until the test ends.
func (c *memoCounts) hook(t *testing.T) {
	memoHook = func(k memoCase, n int) { c[k].Add(int64(n)) }
	t.Cleanup(func() { memoHook = nil })
}

// TestMemoSurvivesCommits: on the full preset's aged γ = 0 table with
// every memo filled, every valid memo equals a fresh sweep of its
// group's levels (CheckShape) after each commit of overwrite and
// relocation rounds and after Compact, committed by one worker or spread
// over four. The rounds must exercise every rule that brings a memo up
// to date: committed slots, victims joining level 1 with and without a
// fresh level above them, the shift pass of a commit that adds a level,
// a shedding rebuild's rewrite and a no-op rebuild that keeps the memo.
func TestMemoSurvivesCommits(t *testing.T) {
	names := [memoCases]string{
		memoCommitted: "committed slots", memoJoined: "victims joining level 1",
		memoJoinedUnder: "victims joining level 1 under a fresh level", memoGrew: "commits adding a level",
		memoRewritten: "shedding rebuilds", memoKept: "no-op rebuilds",
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var counts memoCounts
			counts.hook(t)
			tb, a := memoTable(true)
			tb.maxWorkers = workers
			check := func(when string) {
				if err := tb.CheckShape(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			a.check = func() { check("Update") }
			for round := 0; round < 6; round++ {
				fillMemos(t, tb)
				a.age(tb, 1)
				tb.Compact()
				check("Compact")
			}
			for k := range names {
				t.Logf("%s: %d", names[k], counts[k].Load())
				if counts[k].Load() == 0 {
					t.Errorf("no %s", names[k])
				}
			}
		})
	}
}

// TestMemoAllocatesOnce: a group allocates its memo at its first fill
// and reuses it after that: a γ = 0 commit patches it in place, and the
// refill after a γ = 4 commit dropped it writes the same array.
func TestMemoAllocatesOnce(t *testing.T) {
	for _, full := range []bool{true, false} {
		tb, _ := memoTable(full)
		var out [addr.GroupSize]Answer
		tb.LookupRun(0, out[:])
		g := tb.lookupGroup(0)
		slots := g.memo.slots
		if slots == nil {
			t.Fatal("no memo after a whole-group read")
		}
		for i := 0; i < 20; i++ {
			tb.Update(mappings(7, 1, addr.PPA(1<<20+4*i), 4))
			tb.LookupRun(0, out[:])
			if g.memo.slots != slots || !g.memo.valid {
				t.Fatalf("γ = %d: after a commit the group's memo is not the one it allocated", tb.Gamma())
			}
		}
		if avg := testing.AllocsPerRun(50, func() {
			g.memo.changed()
			tb.LookupRun(0, out[:])
		}); avg != 0 {
			t.Errorf("γ = %d: a refill allocates %.2f objects, want 0", tb.Gamma(), avg)
		}
	}
}

// TestAuditsLeaveMemosAlone: CheckShape and AuditExact sweep the levels
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
