package core

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// sweepSpace is the LPA space the sweep programs write: four groups, so
// windows and batches cross group boundaries.
const sweepSpace = 4 * addr.GroupSize

// The ops of a sweep program (runSweepProgram).
const (
	opUpdate = iota
	opRepair
	opCompact
	opWindow
	numOps
)

// sweepProg builds sweep programs for the seed corpus. Its first byte
// configures the table: bit 0 sets γ = 4 (else 0), bit 1 builds the full
// preset's table, which learns at γ = 0 (presetGamma).
type sweepProg []byte

func newProg(gamma4, bitmap bool) sweepProg {
	var cfg byte
	if gamma4 {
		cfg |= 1
	}
	if bitmap {
		cfg |= 2
	}
	return sweepProg{cfg}
}

// update commits n LPAs from start: step (1–4) apart, or, given gaps,
// 1 + gaps[i]%3 apart. PPAs are consecutive but jump by jump pages
// before the pair at index at.
func (p sweepProg) update(start, n, step, at, jump int, gaps ...byte) sweepProg {
	pattern := byte(step-1) & 3
	if gaps != nil {
		if len(gaps) != n-1 {
			panic("sweepProg.update: an irregular run takes n-1 gaps")
		}
		pattern |= 4
	}
	p = append(p, opUpdate, byte(start>>8), byte(start), byte(n-1), pattern, byte(at), byte(jump))
	return append(p, gaps...)
}

// repair pins LPA l to its true PPA with a one-point insert.
func (p sweepProg) repair(l int) sweepProg { return append(p, opRepair, byte(l>>8), byte(l)) }

// op appends an op with its operand bytes.
func (p sweepProg) op(op byte, rest ...byte) sweepProg { return append(append(p, op), rest...) }

// window checks the n-slot window (1–256) at lpa l.
func (p sweepProg) window(l, n int) sweepProg {
	return p.op(opWindow, byte(l>>8), byte(l), byte(n-1))
}

// sweepSeeds returns the seed corpus of FuzzSweep. Between them the
// seeds build stride > 1 segments, approximate slots a newer approximate
// segment's range redirects, and windows that end at offset 255;
// TestSweepSeedsCover checks they do.
func sweepSeeds() [][]byte {
	var seeds [][]byte
	for _, cfg := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		p := newProg(cfg[0], cfg[1])
		// A sequential prefill over the first two groups, a stride-3
		// run, two interleaved irregular runs with PPA jumps, and
		// windows across them, one ending at the first group's last
		// slot.
		p = p.update(0, 64, 1, 0, 0)
		p = p.update(64, 64, 1, 0, 0)
		p = p.update(200, 60, 3, 30, 9)
		p = p.update(10, 20, 1, 7, 5, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1, 2, 0, 0, 1, 2, 1, 0, 2, 1)
		p = p.update(14, 12, 1, 5, 3, 1, 2, 0, 2, 1, 0, 2, 1, 0, 2, 1)
		p = p.window(0, 256).window(190, 66).window(250, 12)
		// A repair of an approximate slot, then a compaction, and the
		// windows again.
		p = p.repair(16)
		p = p.window(8, 40).op(opCompact).window(0, 256).window(128, 128)
		seeds = append(seeds, p)
	}
	return seeds
}

// sweepRun is one sweep program's state.
type sweepRun struct {
	t     *testing.T
	prog  []byte
	tb    *Table
	truth [sweepSpace]addr.PPA
	ppa   addr.PPA
	out   [addr.GroupSize + 1]uint64
	pairs []addr.Mapping

	// Coverage of the checked windows, for TestSweepSeedsCover.
	strided, redirectedApprox, endsAt255 bool
	// memoRead: a window of a group that held a valid memo was checked.
	memoRead bool
}

func (r *sweepRun) next() byte {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return b
}

func (r *sweepRun) nextLPA() addr.LPA {
	hi := r.next()
	return addr.LPA(int(hi)<<8|int(r.next())) % sweepSpace
}

// runSweepProgram interprets prog against a fresh table and checks every
// window it names, and every whole group at the end, against the walk.
func runSweepProgram(t *testing.T, prog []byte) *sweepRun {
	r := &sweepRun{t: t, prog: prog, ppa: 1}
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
		case opWindow:
			l := r.nextLPA()
			r.check(l, 1+int(r.next()))
		}
	}
	for g := 0; g < sweepSpace/addr.GroupSize; g++ {
		r.check(addr.LPA(g*addr.GroupSize), addr.GroupSize)
	}
	return r
}

// update commits one batch: sorted unique LPAs inside the space, on
// ascending PPAs with one jump.
func (r *sweepRun) update() {
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
		if l >= sweepSpace {
			break
		}
		if i == at {
			r.ppa += jump
		}
		r.pairs = append(r.pairs, addr.Mapping{LPA: addr.LPA(l), PPA: r.ppa})
		r.truth[l] = r.ppa
		r.ppa++
	}
	r.tb.Update(r.pairs)
}

// check sweeps the n-slot window at lpa, cut at its group's end, and
// compares every slot with a walk of the group's levels, then looks each
// LPA up and compares it with the walk too. It looks the window up
// twice, so a group that had not filled its answer memo by the first
// pass may answer the second from it (memo.go).
func (r *sweepRun) check(lpa addr.LPA, n int) {
	t := r.t
	t.Helper()
	n = min(n, addr.GroupSize-int(addr.Offset(lpa)))
	g := r.tb.lookupGroup(addr.Group(lpa))
	if g != nil {
		const sentinel = 0x5eed_0000_1234
		for i := range r.out {
			r.out[i] = sentinel
		}
		r.tb.sweep(g, lpa, r.out[:n])
		for i := n; i < len(r.out); i++ {
			if r.out[i] != sentinel {
				t.Fatalf("sweep(%d, %d slots) wrote slot %d past its window", lpa, n, i)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		r.memoRead = r.memoRead || g != nil && g.memo.valid
		for i := 0; i < n; i++ {
			l := lpa + addr.LPA(i)
			want := answer{PPA: addr.InvalidPPA}
			if g != nil {
				want = walked(r.tb, g, l)
				if got := unpacked(r.out[i], g.depth()); got != want {
					t.Fatalf("sweep(%d, %d slots) slot %d (LPA %d) = %+v, the walk = %+v", lpa, n, i, l, got, want)
				}
			}
			got := lookup(r.tb, l)
			if got != want {
				t.Fatalf("pass %d: Lookup(%d) = %+v, the walk = %+v", pass, l, got, want)
			}
			r.redirectedApprox = r.redirectedApprox || got.OK && got.Res.Approx && got.Res.Redirected
		}
	}
	r.endsAt255 = r.endsAt255 || int(addr.Offset(lpa))+n == addr.GroupSize
	if g != nil {
		lo, hi := lpa, lpa+addr.LPA(n-1)
		for i := range g.segs {
			s := &g.segs[i]
			r.strided = r.strided || s.Accurate() && s.L > 0 && s.Stride() > 1 && s.SLPA <= hi && s.End() >= lo
		}
	}
}

// FuzzSweep checks the sweep and Lookup against the walk, on tables
// built by a program of Update batches (strides, irregular gaps, PPA
// jumps), one-point repairs and Compact calls, at γ 0 or 4 or as the
// full preset learns (γ = 0). Every slot must agree in PPA, ok, Levels,
// Approx and Redirected.
func FuzzSweep(f *testing.F) {
	for _, s := range sweepSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runSweepProgram(t, prog)
	})
}

// TestSweepSeedsCover runs FuzzSweep's seed corpus and requires it to
// reach the cases the sweep must get right: a slot of a stride > 1
// segment, an approximate slot whose lookup was redirected on the way
// down, a window that ends at the group's last slot, and a window looked
// up from a filled answer memo.
func TestSweepSeedsCover(t *testing.T) {
	var strided, redirected, ends, memo bool
	for _, s := range sweepSeeds() {
		r := runSweepProgram(t, s)
		strided = strided || r.strided
		redirected = redirected || r.redirectedApprox
		ends = ends || r.endsAt255
		memo = memo || r.memoRead
	}
	if !strided || !redirected || !ends || !memo {
		t.Fatalf("seed corpus misses a case: stride > 1 %v, redirected approximate slot %v, window ending at 255 %v, memo read %v",
			strided, redirected, ends, memo)
	}
}

// TestSweepAgedTable checks the sweep and Lookup against the walk on an
// aged γ = 4 table (the ager's overwrites, relocations and repairs),
// over random windows.
func TestSweepAgedTable(t *testing.T) {
	tb := NewTable(4)
	a := newAger(7, 8)
	a.prefill(tb)
	for r := 0; r < 6; r++ {
		a.age(tb, 1)
		a.repair(tb, 400)
	}
	r := &sweepRun{t: t, tb: tb}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		r.check(addr.LPA(rng.Intn(8*addr.GroupSize)), 1+rng.Intn(addr.GroupSize))
	}
}

// TestSweepZeroAllocs: filling a memo the group has allocated before
// allocates nothing. Every call drops the group's memo and looks up the
// fill trigger's worth of LPAs, the last of which sweeps the whole group.
func TestSweepZeroAllocs(t *testing.T) {
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
				g.memo.backoff = 0
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
