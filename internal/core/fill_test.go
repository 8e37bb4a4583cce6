package core

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// fillSpace is the LPA space the fill programs write: four groups, so
// batches cross group boundaries.
const fillSpace = 4 * addr.GroupSize

// The ops of a fill program (runFillProgram).
const (
	opUpdate = iota
	opRepair
	opCompact
	opCheck
	numOps
)

// fillProg builds fill programs for the seed corpus. Its first byte
// configures the table: bit 0 sets γ = 4 (else 0), bit 1 builds the full
// preset's table, which learns at γ = 0 (presetGamma).
type fillProg []byte

func newProg(gamma4, bitmap bool) fillProg {
	var cfg byte
	if gamma4 {
		cfg |= 1
	}
	if bitmap {
		cfg |= 2
	}
	return fillProg{cfg}
}

// update commits n LPAs from start: step (1–4) apart, or, given gaps,
// 1 + gaps[i]%3 apart. PPAs are consecutive but jump by jump pages
// before the pair at index at.
func (p fillProg) update(start, n, step, at, jump int, gaps ...byte) fillProg {
	pattern := byte(step-1) & 3
	if gaps != nil {
		if len(gaps) != n-1 {
			panic("fillProg.update: an irregular run takes n-1 gaps")
		}
		pattern |= 4
	}
	p = append(p, opUpdate, byte(start>>8), byte(start), byte(n-1), pattern, byte(at), byte(jump))
	return append(p, gaps...)
}

// repair pins LPA l to its true PPA with a one-point insert.
func (p fillProg) repair(l int) fillProg { return append(p, opRepair, byte(l>>8), byte(l)) }

// op appends an op with its operand bytes.
func (p fillProg) op(op byte, rest ...byte) fillProg { return append(append(p, op), rest...) }

// check checks group id (0–3) whole.
func (p fillProg) check(id int) fillProg { return p.op(opCheck, byte(id)) }

// fillSeeds returns the seed corpus of FuzzFill. Between them the seeds
// build stride > 1 segments, approximate slots below a newer approximate
// segment whose range covers them, a check that reads a filled memo, a
// check of a group with a claim that resolve sinks to another level than
// the one it answered from, and a check that reads a memo a γ = 4 commit
// patched after pushing an approximate victim down; TestFillSeedsCover
// checks they do.
func fillSeeds() [][]byte {
	var seeds [][]byte
	for _, cfg := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		p := newProg(cfg[0], cfg[1])
		// A sequential prefill over the first two groups, a stride-3
		// run, two interleaved irregular runs with PPA jumps, and checks
		// of the groups they wrote.
		p = p.update(0, 64, 1, 0, 0)
		p = p.update(64, 64, 1, 0, 0)
		p = p.update(200, 60, 3, 30, 9)
		p = p.update(10, 20, 1, 7, 5, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1, 2, 0, 0, 1, 2, 1, 0, 2, 1)
		p = p.update(14, 12, 1, 5, 3, 1, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1)
		p = p.check(0).check(1)
		// A repair of an approximate slot, then a compaction, and the
		// checks again.
		p = p.repair(16)
		p = p.check(0).op(opCompact).check(0).check(1)
		seeds = append(seeds, p)
	}
	// Group 2: a run, an overwrite inside it that pushes it down, one
	// inside that which pushes the overwrite under a fresh level, and the
	// overwrite again, which removes the newest and shadows the middle
	// one: the first run answers from the third level from the top but
	// would sink to the second.
	p := newProg(false, false)
	p = p.update(512, 64, 1, 0, 0).update(532, 11, 1, 0, 0).update(537, 3, 1, 0, 0).update(532, 11, 1, 0, 0)
	seeds = append(seeds, p.check(2))
	// Group 3 at γ = 4: an irregular run learns an approximate segment, a
	// check fills the memo, and a run inside the segment's range pushes
	// it down, which the commit patches into the memo the next check
	// reads.
	p = newProg(true, false)
	p = p.update(768, 20, 1, 0, 0, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1, 2, 0, 0, 1, 2, 1, 0, 2, 1)
	seeds = append(seeds, p.check(3).update(780, 3, 1, 0, 0).check(3))
	return seeds
}

// fillRun is one fill program's state.
type fillRun struct {
	t     *testing.T
	prog  []byte
	tb    *Table
	truth [fillSpace]addr.PPA
	ppa   addr.PPA
	pairs []addr.Mapping

	// Coverage of the checked groups, for TestFillSeedsCover.
	strided, redirectedApprox bool
	// memoRead: a group that held a valid memo was checked.
	memoRead bool
	// sunk: a checked group held a claim that resolve sinks to another
	// level than the one it answered from.
	sunk bool
	// pushed[id]: since group id's last check, a commit patched its valid
	// memo after pushing an approximate victim down; pushedRead: a check
	// read such a memo.
	pushed     map[addr.GroupID]bool
	pushedRead bool
}

func (r *fillRun) next() byte {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return b
}

func (r *fillRun) nextLPA() addr.LPA {
	hi := r.next()
	return addr.LPA(int(hi)<<8|int(r.next())) % fillSpace
}

// runFillProgram interprets prog against a fresh table and checks every
// group it names, and every group at the end, against the walk.
func runFillProgram(t *testing.T, prog []byte) *fillRun {
	r := &fillRun{t: t, prog: prog, ppa: 1, pushed: make(map[addr.GroupID]bool)}
	cfg := r.next()
	gamma := 0
	if cfg&1 != 0 {
		gamma = 4
	}
	r.tb = NewTable(presetGamma(gamma, cfg&2 != 0))
	for len(r.prog) > 0 {
		switch r.next() % numOps {
		case opUpdate:
			r.update()
		case opRepair:
			l := r.nextLPA()
			if r.truth[l] != 0 {
				r.tb.insert(Learned{Seg: Segment{SLPA: l, I: float32(r.truth[l])}, LPAs: []addr.LPA{l}})
			}
		case opCompact:
			r.tb.Compact()
		case opCheck:
			r.check(addr.GroupID(r.next() % (fillSpace / addr.GroupSize)))
		}
	}
	for id := addr.GroupID(0); id < fillSpace/addr.GroupSize; id++ {
		r.check(id)
	}
	return r
}

// update commits one batch: sorted unique LPAs inside the space, on
// ascending PPAs with one jump.
func (r *fillRun) update() {
	l := int(r.nextLPA())
	n := 1 + int(r.next()%64)
	pattern := r.next()
	at, jump := int(r.next())%n, addr.PPA(r.next()%16)
	r.pairs = r.pairs[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			if pattern&4 != 0 {
				l += 1 + int(r.next()%3)
			} else {
				l += 1 + int(pattern&3)
			}
		}
		if l >= fillSpace {
			break
		}
		if i == at {
			r.ppa += jump
		}
		r.pairs = append(r.pairs, addr.Mapping{LPA: addr.LPA(l), PPA: r.ppa})
		r.truth[l] = r.ppa
		r.ppa++
	}
	before := validMemos(r.tb)
	r.tb.Update(r.pairs)
	for id, was := range before {
		if pushedApprox(r.tb.lookupGroup(id), &was) > 0 {
			r.pushed[id] = true
		}
	}
}

// check fills group id's memo into a scratch array and compares every
// slot with a walk of the group's levels, then looks each LPA up and
// compares it with the walk too. It looks the group up twice, so a group
// that had not filled its answer memo by the first pass answers the
// second from it (memo.go).
func (r *fillRun) check(id addr.GroupID) {
	t := r.t
	t.Helper()
	g := r.tb.lookupGroup(id)
	var fresh [addr.GroupSize]answer
	if g != nil {
		fresh = filled(r.tb, id)
		for _, c := range r.tb.rb.live {
			r.sunk = r.sunk || c.level != c.from
		}
		r.pushedRead = r.pushedRead || g.memo.valid && r.pushed[id]
	}
	delete(r.pushed, id)
	for pass := 0; pass < 2; pass++ {
		r.memoRead = r.memoRead || g != nil && g.memo.valid
		for o := range fresh {
			l := addr.GroupBase(id) + addr.LPA(o)
			want := answer{PPA: addr.InvalidPPA}
			if g != nil {
				want = walked(r.tb, g, l)
				if fresh[o] != want {
					t.Fatalf("group %d: the fill's slot %d = %+v, the walk = %+v", id, o, fresh[o], want)
				}
			}
			got := lookup(r.tb, l)
			if got != want {
				t.Fatalf("pass %d: Lookup(%d) = %+v, the walk = %+v", pass, l, got, want)
			}
			r.redirectedApprox = r.redirectedApprox || got.Res.Approx && redirected(g, l, got.Res.Levels)
		}
	}
	if g != nil {
		for i := range g.segs {
			s := &g.segs[i]
			r.strided = r.strided || s.Accurate() && s.L > 0 && s.Stride() > 1
		}
	}
}

// redirected reports whether a level above the one that answered lpa
// after levels levels holds an approximate segment whose range covers
// lpa: the CRB sent the walk on past it to the LPA's owner (Figure 9).
func redirected(g *group, lpa addr.LPA, levels int) bool {
	for li := 0; li < levels-1; li++ {
		lv := g.level(li)
		i := searchKeys(lv.keys, uint16(addr.Offset(lpa))+1) - 1
		if i >= 0 && !lv.segs[i].Accurate() && lv.segs[i].Contains(lpa) {
			return true
		}
	}
	return false
}

// FuzzFill checks the memo fill and Lookup against the walk, on tables
// built by a program of Update batches (strides, irregular gaps, PPA
// jumps), one-point repairs, Compact calls and whole-group checks, at γ
// 0 or 4 or as the full preset learns (γ = 0). Every slot of a checked
// group must agree in PPA, ok, Levels and Approx.
func FuzzFill(f *testing.F) {
	for _, s := range fillSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runFillProgram(t, prog)
	})
}

// TestFillSeedsCover runs FuzzFill's seed corpus and requires it to reach
// the cases the fill and the memo patches must get right: a slot of a
// stride > 1 segment, an approximate slot whose walk passed a newer
// approximate segment that covers it, a group looked up from a filled
// answer memo, a fill of a group with a claim that resolve sinks to
// another level than the one it answered from (a fill packs the latter),
// and a lookup from a memo a γ = 4 commit patched after pushing an
// approximate victim down.
func TestFillSeedsCover(t *testing.T) {
	var strided, redirected, memo, sunk, pushed bool
	for _, s := range fillSeeds() {
		r := runFillProgram(t, s)
		strided = strided || r.strided
		redirected = redirected || r.redirectedApprox
		memo = memo || r.memoRead
		sunk = sunk || r.sunk
		pushed = pushed || r.pushedRead
	}
	if !strided || !redirected || !memo || !sunk || !pushed {
		t.Fatalf("seed corpus misses a case: stride > 1 %v, redirected approximate slot %v, memo read %v, "+
			"claim sunk elsewhere %v, memo patched for an approximate victim %v",
			strided, redirected, memo, sunk, pushed)
	}
}

// TestFillAgedTable checks the fill and Lookup against the walk on every
// group of two aged tables, the paper preset's γ = 4 one and the full
// preset's γ = 0 one, after each round of the ager's overwrites and
// relocations, after its repairs and after a Compact. Each check fills
// the groups' memos, so the later checks also read memos that commits
// patched and rebuilds rewrote.
func TestFillAgedTable(t *testing.T) {
	for _, full := range []bool{false, true} {
		tb := NewTable(presetGamma(4, full))
		a := newAger(7, 8)
		a.prefill(tb)
		r := &fillRun{t: t, tb: tb}
		checkAll := func() {
			for id := addr.GroupID(0); id < 8; id++ {
				r.check(id)
			}
		}
		for round := 0; round < 6; round++ {
			a.age(tb, 1)
			checkAll()
			a.repair(tb, 400)
			checkAll()
			tb.Compact()
			checkAll()
		}
	}
}

// TestFillZeroAllocs: filling a memo the group has allocated before
// allocates nothing. Every call drops the group's memo and looks up the
// fill trigger's worth of LPAs, the last of which fills it.
func TestFillZeroAllocs(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		rng := rand.New(rand.NewSource(2))
		tb := NewTable(gamma)
		ppa := addr.PPA(0)
		for g := 0; g < 16; g++ {
			tb.Update(mixedBatch(rng, addr.LPA(g*512), ppa))
			ppa += 256
		}
		lpa := addr.LPA(0)
		if avg := testing.AllocsPerRun(2000, func() {
			g := tb.lookupGroup(addr.Group(lpa))
			if g == nil {
				tb.Lookup(lpa)
			} else {
				g.memo.changed()
				for i := 0; i < memoFillLPAs; i++ {
					tb.Lookup(lpa)
				}
				if !g.memo.valid {
					t.Fatal("no fill after the trigger's worth of lookups")
				}
			}
			lpa = (lpa + 37) % (16 * 512)
		}); avg != 0 {
			t.Errorf("gamma %d: a memo fill allocates %.2f objects per call, want 0", gamma, avg)
		}
	}
}

// filled returns group id's answers from a memo fill into a scratch
// array: the group's own memo stays as it was.
func filled(tb *Table, id addr.GroupID) (out [addr.GroupSize]answer) {
	g := tb.lookupGroup(id)
	var slots [addr.GroupSize]uint64
	memo := g.memo
	g.memo.slots = &slots
	tb.fill(g, addr.GroupBase(id))
	g.memo = memo
	for o, v := range slots {
		out[o] = unpacked(v, g.depth())
	}
	return out
}

// answer is one LPA's translation as Lookup returns it.
type answer struct {
	PPA addr.PPA
	Res LookupResult
	OK  bool
}

func lookup(tb *Table, l addr.LPA) answer {
	ppa, res, ok := tb.Lookup(l)
	return answer{ppa, res, ok}
}

func walked(tb *Table, g *group, l addr.LPA) answer {
	ppa, res, ok := tb.walk(g, l)
	return answer{ppa, res, ok}
}

func unpacked(v uint64, depth int) answer {
	ppa, res, ok := unpack(v, depth)
	return answer{ppa, res, ok}
}
