package core

import (
	"fmt"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// lookupRunSpace is the LPA space the LookupRun programs write: four
// groups, so windows and batches cross group boundaries.
const lookupRunSpace = 4 * addr.GroupSize

// The ops of a LookupRun program (runLookupRunProgram).
const (
	opUpdate = iota
	opRepair
	opCompact
	opWindow
	numOps
)

// lrProg builds LookupRun programs for the seed corpus. Its first byte
// configures the table: bit 0 sets γ = 4 (else 0), bit 1 turns
// verify-at-learn on.
type lrProg []byte

func newProg(gamma4, bitmap bool) lrProg {
	var cfg byte
	if gamma4 {
		cfg |= 1
	}
	if bitmap {
		cfg |= 2
	}
	return lrProg{cfg}
}

// update commits n LPAs from start: step (1–4) apart, or, given gaps,
// 1 + gaps[i]%3 apart. PPAs are consecutive but jump by jump pages
// before the pair at index at.
func (p lrProg) update(start, n, step, at, jump int, gaps ...byte) lrProg {
	pattern := byte(step-1) & 3
	if gaps != nil {
		if len(gaps) != n-1 {
			panic("lrProg.update: an irregular run takes n-1 gaps")
		}
		pattern |= 4
	}
	p = append(p, opUpdate, byte(start>>8), byte(start), byte(n-1), pattern, byte(at), byte(jump))
	return append(p, gaps...)
}

// repair pins LPA l to its true PPA with a one-point insert.
func (p lrProg) repair(l int) lrProg { return append(p, opRepair, byte(l>>8), byte(l)) }

// op appends an op with its operand bytes.
func (p lrProg) op(op byte, rest ...byte) lrProg { return append(append(p, op), rest...) }

// window checks the n-slot window (1–256) at lpa l.
func (p lrProg) window(l, n int) lrProg {
	return p.op(opWindow, byte(l>>8), byte(l), byte(n-1))
}

// lookupRunSeeds returns the seed corpus of FuzzLookupRun. Between them
// the seeds build stride > 1 segments, approximate slots a newer
// approximate segment's range redirects, and windows that end at offset
// 255; TestLookupRunSeedsCover checks they do.
func lookupRunSeeds() [][]byte {
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

// lrRun is one LookupRun program's state.
type lrRun struct {
	t     *testing.T
	prog  []byte
	tb    *Table
	truth [lookupRunSpace]addr.PPA
	ppa   addr.PPA
	out   [addr.GroupSize + 1]Answer
	pairs []addr.Mapping

	// Coverage of the checked windows, for TestLookupRunSeedsCover.
	strided, redirectedApprox, endsAt255 bool
	// memoRead: a window of a group that held a valid memo was checked.
	memoRead bool
}

func (r *lrRun) next() byte {
	if len(r.prog) == 0 {
		return 0
	}
	b := r.prog[0]
	r.prog = r.prog[1:]
	return b
}

func (r *lrRun) nextLPA() addr.LPA {
	hi := r.next()
	return addr.LPA(int(hi)<<8|int(r.next())) % lookupRunSpace
}

// runLookupRunProgram interprets prog against a fresh table and checks
// every window it names, and every whole group at the end, against
// Lookup.
func runLookupRunProgram(t *testing.T, prog []byte) *lrRun {
	r := &lrRun{t: t, prog: prog, ppa: 1}
	cfg := r.next()
	gamma := 0
	if cfg&1 != 0 {
		gamma = 4
	}
	r.tb = NewTable(gamma)
	if cfg&2 != 0 {
		r.tb.EnableVerifyAtLearn()
	}
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
	for g := 0; g < lookupRunSpace/addr.GroupSize; g++ {
		r.check(addr.LPA(g*addr.GroupSize), addr.GroupSize)
	}
	return r
}

// update commits one batch: sorted unique LPAs inside the space, on
// ascending PPAs with one jump.
func (r *lrRun) update() {
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
		if l >= lookupRunSpace {
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

// check compares LookupRun over the n-slot window at lpa with a Lookup
// of every slot and with a walk of the group's levels, and requires them
// to leave Gen where it was. It reads the window twice, so a group that
// had not filled its answer memo by the first pass may answer the second
// from it (memo.go).
func (r *lrRun) check(lpa addr.LPA, n int) {
	r.t.Helper()
	for pass := 0; pass < 2; pass++ {
		r.checkOnce(lpa, n)
	}
}

func (r *lrRun) checkOnce(lpa addr.LPA, n int) {
	t := r.t
	t.Helper()
	g := r.tb.lookupGroup(addr.Group(lpa))
	r.memoRead = r.memoRead || g != nil && g.memo.valid
	sentinel := Answer{PPA: 12345, OK: true, Res: LookupResult{Levels: -1}}
	for i := range r.out {
		r.out[i] = sentinel
	}
	gen := r.tb.Gen()
	got := r.tb.LookupRun(lpa, r.out[:n])
	want := min(n, addr.GroupSize-int(addr.Offset(lpa)))
	if got != want {
		t.Fatalf("LookupRun(%d, %d slots) answered %d, want %d", lpa, n, got, want)
	}
	for i := got; i < len(r.out); i++ {
		if r.out[i] != sentinel {
			t.Fatalf("LookupRun(%d, %d slots) wrote slot %d past its %d answers", lpa, n, i, got)
		}
	}
	for i := 0; i < got; i++ {
		l := lpa + addr.LPA(i)
		ppa, res, ok := r.tb.Lookup(l)
		if oracle := (Answer{PPA: ppa, Res: res, OK: ok}); r.out[i] != oracle {
			t.Fatalf("LookupRun(%d, %d slots) slot %d (LPA %d) = %+v, Lookup = %+v", lpa, n, i, l, r.out[i], oracle)
		}
		if g != nil {
			wppa, wres, wok := r.tb.walk(g, l)
			if walked := (Answer{PPA: wppa, Res: wres, OK: wok}); r.out[i] != walked {
				t.Fatalf("LookupRun(%d, %d slots) slot %d (LPA %d) = %+v, the walk = %+v", lpa, n, i, l, r.out[i], walked)
			}
		}
		r.redirectedApprox = r.redirectedApprox || ok && res.Approx && res.Redirected
	}
	if r.tb.Gen() != gen {
		t.Fatalf("LookupRun or Lookup moved Gen from %d to %d", gen, r.tb.Gen())
	}
	r.endsAt255 = r.endsAt255 || int(addr.Offset(lpa))+got == addr.GroupSize
	if g != nil {
		lo, hi := lpa, lpa+addr.LPA(got-1)
		for i := range g.segs {
			s := &g.segs[i]
			r.strided = r.strided || s.Accurate() && s.L > 0 && s.Stride() > 1 && s.SLPA <= hi && s.End() >= lo
		}
	}
}

// FuzzLookupRun checks LookupRun against a Lookup of every slot, on
// tables built by a program of Update batches (strides, irregular gaps,
// PPA jumps), one-point repairs and Compact calls, at γ 0 or 4
// with verify-at-learn on or off. Every slot must agree in PPA, ok,
// Levels, Approx, Exact and Redirected.
func FuzzLookupRun(f *testing.F) {
	for _, s := range lookupRunSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runLookupRunProgram(t, prog)
	})
}

// TestLookupRunSeedsCover runs FuzzLookupRun's seed corpus and requires
// it to reach the cases the sweep must get right: a slot of a stride > 1
// segment, an approximate slot whose lookup was redirected on the way
// down, a window that ends at the group's last slot, and a window read
// from a filled answer memo.
func TestLookupRunSeedsCover(t *testing.T) {
	var strided, redirected, ends, memo bool
	for _, s := range lookupRunSeeds() {
		r := runLookupRunProgram(t, s)
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

// TestLookupRunAgedTable checks LookupRun against Lookup on an aged,
// verifying γ = 4 table (the ager's overwrites, relocations and
// repairs), over random windows.
func TestLookupRunAgedTable(t *testing.T) {
	tb := NewTable(4)
	tb.EnableVerifyAtLearn()
	a := newAger(7, 8)
	a.prefill(tb)
	for r := 0; r < 6; r++ {
		a.age(tb, 1)
		a.repair(tb, 400)
	}
	r := &lrRun{t: t, tb: tb}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		r.check(addr.LPA(rng.Intn(8*addr.GroupSize)), 1+rng.Intn(addr.GroupSize))
	}
}

// genTable builds a γ = 4 table of two groups, without verification,
// with an approximate segment in group 0. It returns an LPA the
// approximate segment answers.
func genTable(t *testing.T) (*Table, addr.LPA) {
	t.Helper()
	tb := NewTable(4)
	tb.Update(mappings(0, 1, 1, 2*addr.GroupSize))
	var pairs []addr.Mapping
	ppa := addr.PPA(5000)
	for _, l := range []addr.LPA{10, 13, 14, 16, 19, 22, 23, 25, 26, 29, 31, 34, 35, 36, 38, 41, 43, 44, 47, 49} {
		if l == 29 {
			ppa += 5
		}
		pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
		ppa++
	}
	tb.Update(pairs)
	for l := addr.LPA(0); l < addr.GroupSize; l++ {
		if _, res, ok := tb.Lookup(l); ok && res.Approx {
			return tb, l
		}
	}
	t.Fatal("no approximate slot")
	return nil, 0
}

// TestGenCountsMutations: every exported mutator of the table (and the
// tests' insert) advances Gen and no read-only call does, so a memo of
// LookupRun answers lives exactly as long as the answers hold.
func TestGenCountsMutations(t *testing.T) {
	var out [32]Answer
	truth := func(addr.LPA) (addr.PPA, bool) { return 0, false }
	cases := []struct {
		name    string
		mutates bool
		call    func(tb *Table, approx addr.LPA) error
	}{
		{"Update", true, func(tb *Table, _ addr.LPA) error { tb.Update(mappings(600, 1, 9000, 8)); return nil }},
		{"Insert", true, func(tb *Table, l addr.LPA) error {
			tb.insert(Learned{Seg: Segment{SLPA: l, I: 7}, LPAs: []addr.LPA{l}})
			return nil
		}},
		{"Compact", true, func(tb *Table, _ addr.LPA) error { tb.Compact(); return nil }},
		{"InstallGroup", true, func(tb *Table, _ addr.LPA) error {
			img, err := tb.MarshalGroup(1)
			if err != nil {
				return err
			}
			tb.DropGroup(1)
			gen := tb.Gen()
			if _, err := tb.InstallGroup(img); err != nil {
				return err
			}
			if tb.Gen() == gen {
				return fmt.Errorf("InstallGroup left Gen at %d", gen)
			}
			return nil
		}},
		{"DropGroup", true, func(tb *Table, _ addr.LPA) error { tb.DropGroup(0); return nil }},
		{"EnableVerifyAtLearn", true, func(tb *Table, _ addr.LPA) error { tb.EnableVerifyAtLearn(); return nil }},
		{"Lookup", false, func(tb *Table, l addr.LPA) error { tb.Lookup(l); return nil }},
		{"LookupRun", false, func(tb *Table, l addr.LPA) error { tb.LookupRun(l, out[:]); return nil }},
		{"MarshalGroup", false, func(tb *Table, _ addr.LPA) error { _, err := tb.MarshalGroup(0); return err }},
		{"Stats", false, func(tb *Table, _ addr.LPA) error { tb.Stats(); return nil }},
		{"AuditExact", false, func(tb *Table, _ addr.LPA) error { return tb.AuditExact(truth) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb, l := genTable(t)
			gen := tb.Gen()
			if err := c.call(tb, l); err != nil {
				t.Fatal(err)
			}
			if moved := tb.Gen() != gen; moved != c.mutates {
				t.Errorf("Gen moved %v (from %d to %d), want %v", moved, gen, tb.Gen(), c.mutates)
			}
		})
	}
}

// TestLookupRunZeroAllocs: translating a window allocates nothing,
// whether it sweeps the group's levels (every call drops the group's
// answer memo first and reads fewer LPAs than fill one) or reads warm
// memos.
func TestLookupRunZeroAllocs(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		rng := rand.New(rand.NewSource(2))
		tb := NewTable(gamma)
		ppa := addr.PPA(0)
		for g := 0; g < 16; g++ {
			tb.Update(mixedBatch(rng, addr.LPA(g*512), ppa))
			ppa += 256
		}
		for _, warm := range []bool{false, true} {
			if warm {
				fillMemos(t, tb)
			}
			var buf [32]Answer
			out := buf[:]
			if !warm {
				out = buf[:memoFillLPAs-1]
			}
			lpa := addr.LPA(0)
			if avg := testing.AllocsPerRun(2000, func() {
				if g := tb.lookupGroup(addr.Group(lpa)); g != nil && !warm {
					g.memo.changed()
				}
				tb.LookupRun(lpa, out)
				lpa = (lpa + 37) % (16 * 512)
			}); avg != 0 {
				t.Errorf("gamma %d, warm memos %v: LookupRun allocates %.2f objects per call, want 0", gamma, warm, avg)
			}
		}
	}
}
