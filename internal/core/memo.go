package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// The answer memo: a group that is read far more often than it changes
// answers from a copy of its 256 slots' translations instead of walking
// its levels again for each one (Algorithm 1 lines 17–22). The copy is
// what the rebuild's whole-group resolve finds for every slot, packed 8
// B a slot (packMemo): a ground-truth slot answers resolve's PPA and a
// slot an approximate claim keeps answers the claim's prediction. A
// valid memo equals what the levels answer after every change to the
// group: every change brings it up to date, and only a flatten drops it.
//
//   - A commit run, at any γ, patches the memo in place. A lookup answers
//     from the topmost segment that claims the LPA, with the CRB naming
//     each approximate LPA's one owner, so a commit changes answers only
//     at the LPAs it commits and at the remaining points of the victims
//     it pushes down. Every closeTop sets its victims' points at the
//     level they landed in (Table.patchVictims), and when the run is in,
//     each committed LPA answers from the top (Table.patchMemo). A CRB
//     edit only moves an approximate segment's bounds onto offsets it
//     still owns, and a cut leaves K and I alone, so neither changes
//     another answer. A slot names the level that answers it by its
//     index from the bottom of the stack, or as the top, and a commit
//     opens a fresh level only right below the top, so a commit that
//     adds a level leaves every other slot as it is.
//   - A rebuild that sheds rewrites the memo with the same packing, each
//     slot at the level its claim sank to (Table.rewriteMemo), an
//     approximate claim's slots included: a cut leaves a segment's K and
//     I alone, so its predictions do not change. A no-op rebuild keeps
//     the memo.
//   - A flatten drops it: the re-fit's levels follow no claim's old one.
//     InstallGroup replaces the group, so a restored group starts with
//     no memo, DropGroup frees the memo with the group, and the tests'
//     insert helper drops it.
//
// On the benchmark's aged tables a read-hot group takes many commit runs
// between reads, and patching keeps its memo through them: in one seed-1
// zipf-read sat phase the memo answers 2 586 183 of the 2 589 885 LPAs
// translated, and the rest cost 3 546 walks and 156 fills.
//
// The memo is host working state, like the CRB's owner index: the
// simulated controller still walks the levels, so Levels and Approx are
// the walk's values and SizeBytes does not count the memo.
//
// A fill is one resolve plus the packing, about as costly as
// memoFillLPAs walks on an aged table, so a group with no memo fills it
// once it has translated that many LPAs since its last commit or drop: a
// group committed more often than that never fills and keeps paying
// only the walk.
//
// AuditExact and CheckShape run resolve themselves: an audit neither
// reads nor fills a memo, and CheckShape fails a valid memo that differs
// from a fresh packing.

// memoFillLPAs is the fill trigger. On BenchmarkLookupAged's aged table
// of 221 segments and 6.1 levels per group, a fill costs 5.7–6.5 µs,
// about 25 cold walks of 230–245 ns, and a memo hit 9–10 ns (-cpu 1,
// 2-CPU VM).
const memoFillLPAs = 24

// A packed slot (packMemo): the PPA in the low 32 bits, then 8 bits of
// the answering level's index from the bottom of the stack (0 for an
// unmapped slot), then the ok and approximate bits, and a bit set when
// the top level answers. The index of a level below the top, and the top
// bit, hold while commits open fresh levels beneath the top; unpack
// turns them into Levels.
const (
	memoLevelShift = 32
	memoOK         = 1 << 40
	memoApprox     = 1 << 41
	memoTop        = 1 << 42
)

// answerMemo is one group's memo: the packed answers, allocated at the
// group's first fill and reused after that, whether they hold the
// group's current answers and, while they do not, how many LPAs the
// group translated since its last commit or drop.
type answerMemo struct {
	slots *[addr.GroupSize]uint64
	valid bool
	reads int
}

// changed drops the memo and restarts the read count: the group's
// answers are about to change in a way the memo is not brought up to
// date with.
func (m *answerMemo) changed() {
	m.valid = false
	m.reads = 0
}

// note counts one LPA translated without the memo and reports whether
// the group should fill it now.
func (m *answerMemo) note() bool {
	m.reads++
	return m.reads >= memoFillLPAs
}

// memoLevel packs the level at index d from the bottom of a stack of
// depth levels.
func memoLevel(d, depth int) uint64 {
	if d == depth-1 {
		return memoTop
	}
	return uint64(d) << memoLevelShift
}

// unpack decodes a memo slot of a group depth levels deep.
func unpack(v uint64, depth int) (addr.PPA, LookupResult, bool) {
	res := LookupResult{
		Levels: depth - int(uint8(v>>memoLevelShift)),
		Approx: v&memoApprox != 0,
	}
	if v&memoTop != 0 {
		res.Levels = 1
	}
	return addr.PPA(v), res, v&memoOK != 0
}

// fill resolves group g, whose first LPA is base, into its memo, each
// slot at the level that answered it.
func (t *Table) fill(g *group, base addr.LPA) {
	if g.memo.slots == nil {
		g.memo.slots = new([addr.GroupSize]uint64)
	}
	t.resolve(base, g)
	t.rb.packMemo(g.memo.slots, g.depth(), false)
	g.memo.valid = true
}

// packMemo writes resolve's answer for every slot into out, packed as the
// memo slots of a group depth levels deep: a claimed slot at the level
// its claim answered from or, when sunk, the level the rebuild sank it
// to. A truth slot answers resolve's PPA and a kept one its claim's
// prediction, which the claim's cut left as it was.
func (rb *rebuildBuf) packMemo(out *[addr.GroupSize]uint64, depth int, sunk bool) {
	for o, st := range rb.state {
		if st == slotFree {
			out[o] = uint64(addr.InvalidPPA)
			continue
		}
		c := &rb.live[rb.owner[o]]
		li := c.from
		if sunk {
			li = c.level
		}
		v := memoLevel(depth-1-int(li), depth) | memoOK
		if st == slotTruth {
			v |= uint64(rb.ppa[o])
		} else {
			v |= uint64(c.seg.predictApprox(uint8(o))) | memoApprox
		}
		out[o] = v
	}
}

// patchVictims brings g's valid memo up to date with the victims
// closeTop has just landed. Each answers its remaining points from the
// level below the top, or from the one below that when it joined level
// 1 beneath a fresh level: an accurate victim its stride points, an
// approximate one the offsets its CRB entry holds, at its prediction.
// Before the commit it answered them from the top, and nothing that now
// lies above it claims them: the pieces claim only committed LPAs, which
// patchMemo sets when the run is in, and the rest of the old top level
// never overlapped it. A commit that added a level (a fresh one below
// the top, or the group's first) moves no other slot: the top stays the
// top and every level beneath the fresh one keeps its index from the
// bottom.
func (t *Table) patchVictims(g *group) {
	m := g.memo.slots
	depth := g.depth()
	grew := depth > t.topDepth
	if grew {
		noteMemo(memoGrew, 1)
		noteMemo(memoJoinedUnder, t.joined)
	} else {
		noteMemo(memoJoined, t.joined)
	}
	for i := range t.victims.segs {
		seg := &t.victims.segs[i]
		d := depth - 2
		if grew && i < t.joined {
			d--
		}
		claimed := memoLevel(d, depth) | memoOK
		if !seg.Accurate() {
			for _, o := range g.crb.entryFor(seg.Start()).lpas {
				m[o] = uint64(seg.predictApprox(o)) | claimed | memoApprox
			}
			continue
		}
		end, st := int(seg.Start())+int(seg.L), int(seg.stride)
		for o, ppa := int(seg.Start()), seg.p0; o <= end; o, ppa = o+st, ppa+1 {
			m[o] = uint64(ppa) | claimed
		}
	}
}

// patchMemo sets the LPAs run committed in g's valid memo once the last
// closeTop has landed them: each answers from the top, its new PPA or,
// in an approximate piece of learned, the piece's prediction.
func (t *Table) patchMemo(g *group, run []addr.Mapping, learned []Learned) {
	m := g.memo.slots
	for _, p := range run {
		m[addr.Offset(p.LPA)] = uint64(p.PPA) | memoTop | memoOK
	}
	for k := range learned {
		if seg := &learned[k].Seg; !seg.Accurate() {
			for _, l := range learned[k].LPAs {
				o := addr.Offset(l)
				m[o] = uint64(seg.predictApprox(o)) | memoTop | memoOK | memoApprox
			}
		}
	}
	noteMemo(memoCommitted, len(run))
}

// rewriteMemo brings g's valid memo up to date with the shedding rebuild
// that just installed rb.live: every slot answers as resolve found it,
// from the level its claim sank to, or is unmapped.
func (t *Table) rewriteMemo(g *group) {
	if g.memo.valid {
		t.rb.packMemo(g.memo.slots, g.depth(), true)
		noteMemo(memoRewritten, 1)
	}
}

// memoCase names one way a commit or a rebuild brings a valid memo up to
// date.
type memoCase int

const (
	memoCommitted   memoCase = iota // committed LPAs set at the top
	memoJoined                      // pushed-down victims that joined level 1
	memoJoinedUnder                 // the same, beneath a fresh level
	memoGrew                        // commits that added a level
	memoRewritten                   // shedding rebuilds' rewrites
	memoKept                        // no-op rebuilds
	memoCases
)

// memoHook, when set, is told how many of each case a patch, a rewrite
// or a kept memo took. Only tests set it, and commit workers call it
// concurrently.
var memoHook func(memoCase, int)

func noteMemo(c memoCase, n int) {
	if memoHook != nil && n > 0 {
		memoHook(c, n)
	}
}

// checkMemo fails when g, group id, holds a valid memo that differs from
// a fresh packing of the group's resolve, which t.rb holds.
func (t *Table) checkMemo(id addr.GroupID, g *group) error {
	if !g.memo.valid {
		return nil
	}
	var fresh [addr.GroupSize]uint64
	t.rb.packMemo(&fresh, g.depth(), false)
	for o, want := range fresh {
		if v := g.memo.slots[o]; v != want {
			return fmt.Errorf("group %d: memo slot %d holds %#x, the levels answer %#x", id, o, v, want)
		}
	}
	return nil
}
