package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// The answer memo: a group that is read far more often than it changes
// answers from a copy of its 256 slots' translations instead of walking
// its levels again for each one (Algorithm 1 lines 17–22). The copy is
// the output of one whole-group sweep, packed 8 B a slot. A valid memo
// equals what the levels answer after every change to the group: each
// change either brings it up to date or drops it (answerMemo.changed).
//
//   - A commit run into a group of a γ = 0 table (every full table),
//     which learns only accurate pieces, patches the memo in place
//     (Table.patchMemo) while the group holds no approximate segment:
//     each committed LPA answers its new PPA from the top level, and
//     each victim the landing pushed down answers its remaining stride
//     points from the level it landed in. A slot names the level that
//     answers it by its index from the bottom of the stack, or as the
//     top, and a commit opens a fresh level only right below the top, so
//     a commit that adds a level leaves every other slot as it is.
//   - A rebuild that sheds rewrites the memo from resolve's per-slot PPA
//     and its claim's level (Table.rewriteMemo); a no-op rebuild keeps
//     it; a flatten drops it.
//   - Anything that touches an approximate segment drops it: a commit at
//     γ > 0 (the paper preset, whose CRB edits may reshape approximate
//     segments anywhere in the group), a commit into a group that holds
//     an approximate segment, a rebuild that keeps an approximate claim,
//     and the tests' insert helper.
//   - InstallGroup replaces the group, so a restored group starts with
//     no memo, and DropGroup frees the memo with the group.
//
// On the benchmark's aged tables a read-hot group takes many commit runs
// between reads, and patching keeps its memo through them: in one seed-1
// zipf-read sat phase the memo answers 2 586 183 of the 2 589 885 LPAs
// translated, and the rest cost 3 546 walks and 156 fills.
//
// The memo is host working state, like the CRB's owner index: the
// simulated controller still walks the levels, so Levels, Approx and
// Redirected are the walk's values and SizeBytes does not count the
// memo.
//
// A fill is one whole-group sweep plus the packing, about as costly as
// memoFillLPAs walks on an aged table, so a group fills its memo once it
// has translated that many LPAs since its memo was last dropped: a group
// whose memo is dropped more often than that never fills and keeps
// paying only the walk. A fill pays off when the memo answers at least
// as many LPAs before it is dropped. A group whose fill did not pay
// doubles its trigger, up to a whole group's worth of LPAs, and one
// whose fill paid halves it again, down to memoFillLPAs: a group whose
// memo is dropped about as often as it is read stops filling a memo it
// will not use.
//
// AuditExact and CheckShape sweep the levels directly: an audit neither
// reads nor fills a memo, and CheckShape fails a valid memo that differs
// from its sweep.

// memoFillLPAs is the fill trigger of a group whose fills pay. On
// BenchmarkLookupAged's aged table of 221 segments and 6.1 levels per
// group, a fill costs 6.2–7.4 µs, about 22 cold walks of 300–320 ns, and
// a memo hit 10–11 ns.
const memoFillLPAs = 24

// A packed slot, as the sweep writes it: the PPA in the low 32 bits,
// then 8 bits of the answering level's index from the bottom of the
// stack (0 for an unmapped slot), then the ok, approximate and
// redirected bits, and a bit set when the top level answers. The index
// of a level below the top, and the top bit, hold while commits open
// fresh levels beneath the top; unpack turns them into Levels.
const (
	memoLevelShift = 32
	memoOK         = 1 << 40
	memoApprox     = 1 << 41
	memoRedirected = 1 << 42
	memoTop        = 1 << 43
)

// answerMemo is one group's memo: the packed answers, allocated at the
// group's first fill and reused after that, and whether they hold the
// group's current answers. reads counts the LPAs the group translated
// since its memo was last dropped or, while the memo is valid, the LPAs
// the memo answered after the fill; the fill trigger is
// memoFillLPAs << backoff.
type answerMemo struct {
	slots   *[addr.GroupSize]uint64
	valid   bool
	reads   int
	backoff uint8
}

// changed drops the memo, moves the trigger by whether the fill paid,
// and restarts the read count: the group's answers are about to change
// in a way the memo is not brought up to date with.
func (m *answerMemo) changed() {
	if m.valid {
		switch {
		case m.reads >= memoFillLPAs:
			if m.backoff > 0 {
				m.backoff--
			}
		case memoFillLPAs<<(m.backoff+1) <= addr.GroupSize:
			m.backoff++
		}
	}
	m.valid = false
	m.reads = 0
}

// note counts one LPA translated without the memo and reports whether
// the group should fill it now.
func (m *answerMemo) note() bool {
	m.reads++
	return m.reads >= memoFillLPAs<<m.backoff
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
		Levels:     depth - int(uint8(v>>memoLevelShift)),
		Approx:     v&memoApprox != 0,
		Redirected: v&memoRedirected != 0,
	}
	if v&memoTop != 0 {
		res.Levels = 1
	}
	return addr.PPA(v), res, v&memoOK != 0
}

// fill sweeps group g, whose first LPA is base, into its memo.
func (t *Table) fill(g *group, base addr.LPA) {
	if g.memo.slots == nil {
		g.memo.slots = new([addr.GroupSize]uint64)
	}
	t.sweep(g, base, g.memo.slots[:])
	g.memo.valid = true
	g.memo.reads = 0
}

// patchMemo brings g's valid memo up to date with the commit of run that
// closeTop has just landed, in a group that holds no approximate segment
// and from pieces that are all accurate. Two passes, in this order, so
// that a victim's stride point the same run committed ends at the top:
//
//   - each victim the landing pushed down answers its remaining stride
//     points from the level below the top, or from the one below that
//     when it joined level 1 beneath a fresh level. Before the commit it
//     answered them from the top, and nothing that now lies above it
//     claims them: the pieces claim only committed LPAs, and the rest of
//     the old top level never overlapped it;
//   - each committed LPA answers its new PPA from the top.
//
// A commit that added a level (a fresh one below the top, or the
// group's first) moves no other slot: the top stays the top and every
// level beneath the fresh one keeps its index from the bottom.
func (t *Table) patchMemo(g *group, run []addr.Mapping) {
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
		end, st := int(seg.Start())+int(seg.L), int(seg.stride)
		for o, ppa := int(seg.Start()), seg.p0; o <= end; o, ppa = o+st, ppa+1 {
			m[o] = uint64(ppa) | claimed
		}
	}
	for _, p := range run {
		m[addr.Offset(p.LPA)] = uint64(p.PPA) | memoTop | memoOK
	}
	noteMemo(memoCommitted, len(run))
}

// rewriteMemo brings g's valid memo up to date with the shedding rebuild
// that just installed rb.live: every slot answers resolve's PPA from its
// claim's level, or is unmapped. A memo of a group that kept an
// approximate claim is dropped instead.
func (t *Table) rewriteMemo(g *group) {
	rb := &t.rb
	if !g.memo.valid || rb.approx > 0 {
		g.memo.changed()
		return
	}
	depth := g.depth()
	for o, st := range rb.state {
		v := uint64(addr.InvalidPPA)
		if st == slotTruth {
			v = uint64(rb.ppa[o]) | memoLevel(depth-1-int(rb.live[rb.owner[o]].level), depth) | memoOK
		}
		g.memo.slots[o] = v
	}
	noteMemo(memoRewritten, 1)
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

// checkMemo fails when g holds a valid memo that differs from swept,
// the group's slots from a fresh sweep.
func (g *group) checkMemo(id addr.GroupID, swept []uint64) error {
	if !g.memo.valid {
		return nil
	}
	for o, want := range swept {
		if v := g.memo.slots[o]; v != want {
			return fmt.Errorf("group %d: memo slot %d holds %#x, the levels answer %#x", id, o, v, want)
		}
	}
	return nil
}
