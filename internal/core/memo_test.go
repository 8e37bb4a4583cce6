package core

import (
	"testing"

	"leaftl/internal/addr"
)

// memoTable returns a small aged γ = 4 table, verifying or not, with
// several levels and approximate segments per group.
func memoTable(verifying bool) (*Table, *ager) {
	tb := NewTable(4)
	if verifying {
		tb.EnableVerifyAtLearn()
	}
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
		out[o].PPA, out[o].Res, out[o].OK = tb.unpack(v)
	}
	return out
}

// TestMemoInvalidation: after every call that changes a group, each slot
// of a group whose memo was filled answers, through Lookup and
// LookupRun, exactly as a fresh sweep of its levels does. Each case must
// change some answer of a filled group (or, for a restore, replace the
// group), so a call that fails to drop the memo shows as a stale answer.
func TestMemoInvalidation(t *testing.T) {
	cases := []struct {
		name      string
		verifying bool
		call      func(t *testing.T, tb *Table, a *ager)
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
		{"EnableVerifyAtLearn", false, func(t *testing.T, tb *Table, _ *ager) {
			tb.EnableVerifyAtLearn()
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
			tb, a := memoTable(c.verifying)
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
// translated its trigger's worth of LPAs since its last change (Lookup
// counts one, LookupRun the window), then from its memo. A change
// restarts the count; a fill whose memo answered fewer than memoFillLPAs
// LPAs before the change doubles the trigger, up to a whole group's
// worth, and one that answered more halves it again.
func TestMemoFillTrigger(t *testing.T) {
	tb, _ := memoTable(true)
	g := tb.lookupGroup(0)
	lookups := func(n int) {
		for i := 0; i < n; i++ {
			tb.Lookup(addr.LPA(i % addr.GroupSize))
		}
	}
	var out [addr.GroupSize]Answer
	ppa := addr.PPA(1 << 20)
	change := func() {
		tb.Update(mappings(5, 1, ppa, 3))
		ppa += 3
		if g.memo.valid {
			t.Fatal("a commit into the group left its memo valid")
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
}

// TestMemoAllocatesOnce: a group allocates its memo at its first fill
// and refills it in place after every change.
func TestMemoAllocatesOnce(t *testing.T) {
	tb, _ := memoTable(true)
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
			t.Fatal("the refill after a commit did not reuse the group's memo")
		}
	}
	if avg := testing.AllocsPerRun(50, func() {
		g.memo.changed()
		tb.LookupRun(0, out[:])
	}); avg != 0 {
		t.Errorf("a refill allocates %.2f objects, want 0", avg)
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
