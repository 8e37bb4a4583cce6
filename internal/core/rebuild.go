package core

import (
	"fmt"

	"leaftl/internal/addr"
)

// Whole-group rebuild — the table's single compaction path (paper §3.7
// "Segment Compaction", reshaped after LearnedFTL's per-group retraining,
// arXiv:2303.13226). The log-structured insert path only ever stacks:
// stale claims sink under newer levels and an accurate segment cannot
// record the loss of an interior stride LPA, so a group's encoding grows
// with how often it was written, not with what it holds. A rebuild
// re-derives the encoding from what the group answers today:
//
//  1. resolve: sweep the levels top-down and give every one of the 256
//     slots to the first segment that claims it — exactly the segment
//     Lookup would answer from. A slot won by an accurate segment, or by
//     an approximate one whose predicted-exact bit is set, is ground
//     truth: its translation is known exactly. A slot won by an
//     *unverified* approximate segment is only a ±γ prediction.
//  2. shed: a segment that won no slot is dropped; every other one is cut
//     to the span of the slots it won (an approximate one's CRB entry to
//     exactly those slots) and sinks to the shallowest level at which it
//     still lies below everything newer that overlaps it. No answer
//     changes and nothing is added, so the result is never larger or
//     deeper than what it replaces. Layering is itself compression — one
//     long run under a few overwrites is cheaper than the fragments
//     between them — so this is where a rebuild stops if the group now
//     fits in maxGroupLevels levels.
//  3. re-fit, only when shedding leaves the group too deep (wide
//     interleaved segments that all still answer something): the
//     ground-truth slots, LPA-sorted, go through the same learnBuf/plr
//     path as a committed batch, with the same verify-at-learn triage;
//     what an approximate fit mispredicts is taken out of its claim and
//     fitted exactly, so every ground-truth slot answers as before. A slot
//     answered by an unverified approximate segment keeps that segment,
//     cut to the slots it won: a prediction is never re-fitted (a fit of
//     a fit would stack error past γ) and never promoted to accurate (the
//     read path would stop probing it). An approximate segment with any
//     unverified slot keeps all its slots — a verified one costs it a CRB
//     byte, a fraction of what a re-fit spends. Every claim now names its
//     LPAs exactly and no two share one, so level order carries no
//     meaning and the segments are packed first-fit by start offset into
//     the fewest levels range disjointness allows. Should the kept
//     segments interleave too deeply for that to fit in maxGroupLevels,
//     they are cut into range-disjoint pieces, which stack in one level
//     beside the fit and its exact patches. The flat encoding may be
//     larger than the stack it replaces; it is taken because the stack
//     broke the depth bound.
//
// Rebuilds are triggered per group from the commit path. With L =
// maxGroupLevels, F = rebuildGrowth and M = rebuildMinSegments, a group
// is rebuilt when a mutation leaves it
//
//   - deeper than L levels, or
//   - with more than max(M, F × n) segments, n being its segment count
//     after the previous attempt,
//
// so the work is amortized over the segments inserted since. Compact is
// the backstop sweep over groups still under their triggers.
//
// What the triggers guarantee, and CheckShape audits: a group never rests
// deeper than L (the paper's "99 % of lookups within 10 levels", held for
// all of them), and its footprint is bounded by its live slots, not by
// its history. After an attempt every segment answers at least one slot,
// F = 2 lets that double, and a CRB holds each live LPA once plus a
// separator per segment: segments × 8 B + CRB ≤ 9 × 2 × live + live <
// shapeBytesPerLPA × live, or 9 × M + live while the group is under the
// M-segment floor.
const (
	maxGroupLevels     = 10
	rebuildGrowth      = 2
	rebuildMinSegments = 16

	// shapeBytesPerLPA is the audited footprint bound c × 8 B per live
	// LPA, c = 2.5.
	shapeBytesPerLPA = 20
)

// Slot states of the resolve sweep.
const (
	slotFree  = iota // no segment claims the slot
	slotTruth        // the slot's translation is known exactly
	slotKept         // the slot stays with its unverified approximate segment
)

// claim is one segment of a rebuilt group, already cut to what it answers.
type claim struct {
	seg   Segment
	offs  []uint8 // approximate segments: the LPA offsets answered, ascending
	level int     // assigned by the packers
	must  bool    // unverified approximate: survives a re-fit as it is
}

// rebuildBuf is the scratch behind rebuildGroup, owned by the Table so
// steady-state rebuilds allocate only what the rebuilt group keeps.
type rebuildBuf struct {
	state [addr.GroupSize]uint8    // slotFree, slotTruth or slotKept
	ppa   [addr.GroupSize]addr.PPA // truth slots: the resolved translation
	owner [addr.GroupSize]int16    // claimed slots: index into live
	depth [addr.GroupSize]int16    // shed: levels occupied above each offset

	live    []claim        // segments that still answer a slot, newest first
	claims  []claim        // the re-fit candidate
	byStart []int16        // candidate indices in start-offset order
	truth   []addr.Mapping // the ground-truth run, LPA-sorted
	patch   []addr.Mapping // truth pairs an approximate re-fit mispredicts
	arena   []uint8        // backs every claim's offs
	lvlEnd  []int          // pack: last offset each level covers so far
}

// maybeRebuild rebuilds group id if the mutation that just finished
// pushed it past a trigger.
func (t *Table) maybeRebuild(id addr.GroupID) {
	g := t.lookupGroup(id)
	if len(g.levels) > maxGroupLevels || g.segmentCount() > g.rebuildAt {
		t.compactGroup(id, g)
	}
}

// compactGroup rebuilds g unless nothing has touched it since its last
// attempt, and reports whether its encoding changed.
func (t *Table) compactGroup(id addr.GroupID, g *group) bool {
	if !g.touched {
		return false
	}
	changed := t.rebuildGroup(addr.GroupBase(id), g)
	g.touched = false
	g.rebuildAt = max(rebuildMinSegments, rebuildGrowth*g.segmentCount())
	return changed
}

// rebuildGroup resolves g, sheds what answers nothing and, if the group
// is still too deep, re-fits it flat. It reports whether the group's
// encoding changed.
func (t *Table) rebuildGroup(base addr.LPA, g *group) bool {
	rb := &t.rb
	t.resolve(base, g)
	if levels := rb.sink(); levels <= maxGroupLevels {
		bytes := len(rb.live)*SegmentBytes + len(rb.arena)
		for i := range rb.live {
			if !rb.live[i].seg.Accurate() {
				bytes++ // the CRB entry's separator
			}
		}
		if bytes == g.footprint() && levels == len(g.levels) {
			return false // every claim still answers, nothing can sink
		}
		t.install(g, rb.live, levels)
		return true
	}

	// Too deep even so: re-fit the group flat.
	levels := t.flatten(base, g)
	t.install(g, rb.claims, levels)
	if t.bitmapOn {
		// Exact bits are earned through Lookup: whatever answers the next
		// read of a re-fitted slot is what gets verified. Every other
		// slot answers as it did, so its bit stands.
		for _, m := range rb.truth {
			t.proveExact(g, m)
		}
	}
	return true
}

// flatten builds rb.claims — a re-fit of the ground-truth slots plus the
// segments that cannot be dissolved (unverified approximate) — and packs
// it, returning the level count. A bitmap-enabled table fits at its γ;
// without the bitmap a ±γ fit could not be verified and would trade
// exact answers for predictions the read path has to probe, so the fit
// is at γ = 0.
func (t *Table) flatten(base addr.LPA, g *group) int {
	rb := &t.rb
	rb.truth = rb.truth[:0]
	for o, st := range rb.state {
		if st == slotTruth {
			rb.truth = append(rb.truth, addr.Mapping{LPA: base + addr.LPA(o), PPA: rb.ppa[o]})
		}
	}
	gamma := 0
	if t.bitmapOn {
		gamma = t.gamma
	}
	t.refit(base, gamma)
	nFit := len(rb.claims)
	for i := range rb.live {
		if rb.live[i].must {
			rb.claims = append(rb.claims, rb.live[i])
		}
	}
	levels := rb.pack()
	if levels > maxGroupLevels {
		// The unverified segments interleave too deeply to stack as they
		// are: cut them into range-disjoint pieces, which share a level.
		rb.claims = rb.claims[:nFit]
		rb.splitKept(base)
		levels = rb.pack()
	}
	return levels
}

// resolve gives every slot of g to its topmost claim (rb.state, rb.ppa,
// rb.owner) and lists the segments that won any, cut to what they won, in
// rb.live — top level first, each level in start order.
func (t *Table) resolve(base addr.LPA, g *group) {
	rb := &t.rb
	rb.state = [addr.GroupSize]uint8{}
	rb.live, rb.arena = rb.live[:0], rb.arena[:0]
	for li := range g.levels {
		segs := g.levels[li].segs
		for si := range segs {
			s := &segs[si]
			if s.Accurate() {
				first, last, ppa := -1, 0, s.p0
				for l := s.SLPA; l <= s.End(); l += addr.LPA(s.stride) {
					if o := addr.Offset(l); rb.state[o] == slotFree {
						rb.state[o], rb.ppa[o], rb.owner[o] = slotTruth, ppa, int16(len(rb.live))
						if first < 0 {
							first = int(o)
						}
						last = int(o)
					}
					ppa++
				}
				if first >= 0 {
					rb.live = append(rb.live, claim{seg: *s})
					rb.live[len(rb.live)-1].seg.cut(base, uint8(first), uint8(last))
				}
				continue
			}
			e := g.crb.entryFor(s.Start())
			if e == nil {
				continue
			}
			// One unverified slot keeps the whole segment approximate.
			state := uint8(slotTruth)
			for _, o := range e.lpas {
				if rb.state[o] == slotFree && !(t.bitmapOn && g.exact.test(o)) {
					state = slotKept
					break
				}
			}
			start := len(rb.arena)
			for _, o := range e.lpas {
				if rb.state[o] == slotFree {
					rb.state[o], rb.ppa[o], rb.owner[o] = state, s.predictApprox(o), int16(len(rb.live))
					rb.arena = append(rb.arena, o)
				}
			}
			if len(rb.arena) > start {
				rb.live = append(rb.live, claim{seg: *s, must: state == slotKept})
				rb.live[len(rb.live)-1].own(base, rb.arena[start:])
			}
		}
	}
}

// own makes offs (ascending, the tail of the arena) the LPAs approximate
// claim c answers.
func (c *claim) own(base addr.LPA, offs []uint8) {
	c.offs = offs[:len(offs):len(offs)]
	c.seg.cut(base, offs[0], offs[len(offs)-1])
}

// sink assigns every live segment, newest first, the shallowest level
// below everything already placed that its cut range overlaps, and
// returns the level count. An accurate segment still claims the interior
// stride LPAs it lost, so range overlap has to keep the winner above it;
// segments of one old level never overlap, so neither do those of a new
// one.
func (rb *rebuildBuf) sink() int {
	rb.depth = [addr.GroupSize]int16{}
	levels := 0
	for i := range rb.live {
		c := &rb.live[i]
		span := rb.depth[c.seg.Start() : int(c.seg.Start())+int(c.seg.L)+1]
		li := int16(0)
		for _, d := range span {
			li = max(li, d)
		}
		for j := range span {
			span[j] = li + 1
		}
		c.level = int(li)
		levels = max(levels, c.level+1)
	}
	return levels
}

// refit fits rb.truth at gamma into rb.claims. The learner's output walks
// the run in order, each segment covering the next len(LPAs) pairs.
func (t *Table) refit(base addr.LPA, gamma int) {
	rb := &t.rb
	rb.claims, rb.patch = rb.claims[:0], rb.patch[:0]
	pos := 0
	for _, ls := range t.learner.learn(rb.truth, gamma) {
		sub := rb.truth[pos : pos+len(ls.LPAs)]
		pos += len(sub)
		switch {
		case ls.Seg.Accurate():
			rb.claims = append(rb.claims, claim{seg: ls.Seg})
		case t.triage(ls.Seg, sub):
			// Keep the fit for what it predicts exactly; the rest is
			// patched with exact segments below.
			start, skip := len(rb.arena), t.failed
			for _, m := range sub {
				if len(skip) > 0 && skip[0].LPA == m.LPA {
					skip = skip[1:]
					continue
				}
				rb.arena = append(rb.arena, addr.Offset(m.LPA))
			}
			rb.claims = append(rb.claims, claim{seg: ls.Seg})
			rb.claims[len(rb.claims)-1].own(base, rb.arena[start:])
			rb.patch = append(rb.patch, t.failed...)
		default:
			t.claimExact(sub)
		}
	}
	t.claimExact(rb.patch)
}

// claimExact claims pairs through a γ=0 fit (on the spare learn buffer:
// refit is mid-way through t.learner's output).
func (t *Table) claimExact(pairs []addr.Mapping) {
	for _, ex := range t.refitter.learn(pairs, 0) {
		t.rb.claims = append(t.rb.claims, claim{seg: ex.Seg})
	}
}

// splitKept appends the unverified approximate segments to rb.claims cut
// at every change of owner among their slots, so no two pieces' ranges
// overlap.
func (rb *rebuildBuf) splitKept(base addr.LPA) {
	cur, start := int16(-1), 0
	flush := func() {
		if cur >= 0 {
			rb.claims = append(rb.claims, claim{seg: rb.live[cur].seg, must: true})
			rb.claims[len(rb.claims)-1].own(base, rb.arena[start:])
		}
	}
	for o, st := range rb.state {
		if st != slotKept {
			continue
		}
		if rb.owner[o] != cur {
			flush()
			cur, start = rb.owner[o], len(rb.arena)
		}
		rb.arena = append(rb.arena, uint8(o))
	}
	flush()
}

// sortByStart fills rb.byStart with the indices of claims in start-offset
// order. Every claim is cut to begin at a slot it won, so no two share a
// start offset and one table slot per offset sorts them.
func (rb *rebuildBuf) sortByStart(claims []claim) {
	var at [addr.GroupSize]int16 // claim index + 1, by start offset
	for i := range claims {
		at[claims[i].seg.Start()] = int16(i) + 1
	}
	rb.byStart = rb.byStart[:0]
	for _, i := range at {
		if i != 0 {
			rb.byStart = append(rb.byStart, i-1)
		}
	}
}

// pack assigns every re-fit claim the first level whose segments all end
// before it starts, visiting claims by start offset, and returns the
// level count. The claims share no LPA, so any level order answers the
// same; first-fit in start order uses the fewest levels an interval
// family can.
func (rb *rebuildBuf) pack() int {
	rb.sortByStart(rb.claims)
	rb.lvlEnd = rb.lvlEnd[:0]
	for _, ci := range rb.byStart {
		c := &rb.claims[ci]
		o := int(c.seg.Start())
		li := 0
		for li < len(rb.lvlEnd) && rb.lvlEnd[li] >= o {
			li++
		}
		if li == len(rb.lvlEnd) {
			rb.lvlEnd = append(rb.lvlEnd, 0)
		}
		rb.lvlEnd[li] = o + int(c.seg.L)
		c.level = li
	}
	return len(rb.lvlEnd)
}

// install replaces g's levels and CRB with claims (each assigned one of
// levels levels), keeping the table's counters in step. Levels are
// appended in start order into the old levels' backing arrays.
func (t *Table) install(g *group, claims []claim, levels int) {
	t.rb.sortByStart(claims)
	for li := range g.levels {
		for i := range g.levels[li].segs {
			t.noteRemove(g.levels[li].segs[i])
		}
	}
	oldLevels, oldCRB := len(g.levels), g.crb.sizeBytes()
	g.levels = g.levels[:levels] // a rebuild never deepens a group
	for li := range g.levels {
		g.levels[li].keys = g.levels[li].keys[:0]
		g.levels[li].segs = g.levels[li].segs[:0]
	}

	nOffs := 0
	for i := range claims {
		nOffs += len(claims[i].offs)
	}
	g.crb.reset()
	lpas := make([]uint8, 0, nOffs) // one backing array for every entry
	for _, ci := range t.rb.byStart {
		c := &claims[ci]
		lvl := &g.levels[c.level]
		lvl.keys = append(lvl.keys, c.seg.Start())
		lvl.segs = append(lvl.segs, c.seg)
		t.noteAdd(c.seg)
		if !c.seg.Accurate() {
			n := len(lpas)
			lpas = append(lpas, c.offs...)
			g.crb.add(lpas[n:len(lpas):len(lpas)])
		}
	}
	t.crbBytes += g.crb.sizeBytes() - oldCRB
	t.noteLevels(g, oldLevels)
}

// CheckShape audits every resident group against the bounds the rebuild
// triggers maintain (see the constants above): at most maxGroupLevels
// levels, and a footprint of at most shapeBytesPerLPA per live LPA (or
// the rebuildMinSegments floor, for sparsely written groups). The walk is
// side-effect free and touches only resident groups.
func (t *Table) CheckShape() error {
	var err error
	t.eachGroup(func(id addr.GroupID, g *group) {
		if err != nil {
			return
		}
		if n := len(g.levels); n > maxGroupLevels {
			err = fmt.Errorf("group %d: %d levels, bound %d", id, n, maxGroupLevels)
			return
		}
		live := 0
		base := addr.GroupBase(id)
		for o := 0; o < addr.GroupSize; o++ {
			if _, _, ok := t.Lookup(base + addr.LPA(o)); ok {
				live++
			}
		}
		bound := max(shapeBytesPerLPA*live, (SegmentBytes+1)*rebuildMinSegments+live)
		if b := g.footprint(); b > bound {
			err = fmt.Errorf("group %d: %d B for %d live LPAs, bound %d B", id, b, live, bound)
		}
	})
	return err
}
