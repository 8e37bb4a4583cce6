package core

import (
	"fmt"
	"math/bits"

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
//  1. resolve: visit the levels top-down and give every one of the 256
//     slots to the first segment that claims it — exactly the segment
//     the walk would answer from. A slot won by an accurate segment is
//     ground truth: its translation is known exactly. A slot won by an
//     approximate segment is only a ±γ prediction. resolve is the
//     table's only whole-group pass: a memo fill packs its result
//     (memo.go), and the audits (AuditExact, CheckShape) read it.
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
//     path as a committed batch at γ = 0, so every ground-truth slot
//     answers as before: a ±γ fit would trade exact answers for
//     predictions the read path has to probe. A slot answered by an
//     approximate segment keeps that segment, cut to the slots it won: a
//     prediction is never re-fitted (a fit of a fit would stack error
//     past γ) and never promoted to accurate (the read path would stop
//     probing it). Every claim now names its LPAs exactly and no two
//     share one, so level order carries no meaning and the segments are
//     packed first-fit by start offset into the fewest levels range
//     disjointness allows. Should the kept segments interleave too
//     deeply for that to fit in maxGroupLevels, they are cut into
//     range-disjoint pieces, which stack in one level beside the fit.
//     The flat encoding may be larger than the stack it replaces; it is
//     taken because the stack broke the depth bound.
//
// Rebuilds are triggered per group from the commit path. With L =
// maxGroupLevels, F = rebuildGrowth and M = rebuildMinSegs, a group
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
	maxGroupLevels = 10
	rebuildGrowth  = 2
	rebuildMinSegs = 16

	// shapeBytesPerLPA is the audited footprint bound c × 8 B per live
	// LPA, c = 2.5.
	shapeBytesPerLPA = 20
	// groupCeiling is the most a group's footprint reaches under that
	// bound, every LPA of the group live: 5 120 B.
	groupCeiling = shapeBytesPerLPA * addr.GroupSize
)

// Slot states of the resolve pass.
const (
	slotFree  = iota // no segment claims the slot
	slotTruth        // the slot's translation is known exactly
	slotKept         // the slot stays with its approximate segment
)

// claim is one segment of a rebuilt group, already cut to what it answers.
type claim struct {
	seg    Segment
	lo, hi int32 // approximate segments: rb.arena[lo:hi] holds the LPA offsets answered, ascending
	from   int32 // resolve: the level (0 = top) that answered the claim's slots
	level  int32 // assigned by the packers
}

// rebuildBuf is the scratch behind rebuildGroup, owned by the Table so
// steady-state rebuilds allocate only what the rebuilt group keeps.
type rebuildBuf struct {
	state [addr.GroupSize]uint8    // slotFree, slotTruth or slotKept
	ppa   [addr.GroupSize]addr.PPA // truth slots: the resolved translation
	owner [addr.GroupSize]int16    // claimed slots: index into live
	depth [addr.GroupSize]int16    // shed: levels occupied above each offset
	at    [addr.GroupSize]int16    // sortByStart: claim index by start offset

	live    []claim        // segments that still answer a slot, newest first
	approx  int            // approximate claims in live
	claims  []claim        // the re-fit candidate
	byStart []int16        // candidate indices in start-offset order
	truth   []addr.Mapping // the ground-truth run, LPA-sorted
	arena   []uint8        // the approximate claims' LPA offsets
	lvlEnd  []int          // pack: last offset each level covers so far
	next    []int32        // install: next free slot of each level's window
}

// maybeRebuild rebuilds group id if the mutation that just finished
// pushed it past a trigger.
func (t *Table) maybeRebuild(id addr.GroupID) {
	g := t.lookupGroup(id)
	if g.depth() > maxGroupLevels || g.segmentCount() > g.rebuildAt {
		t.compactGroup(id, g)
	}
}

// compactGroup rebuilds g unless nothing has touched it since its last
// attempt.
func (t *Table) compactGroup(id addr.GroupID, g *group) {
	if !g.touched {
		return
	}
	t.rebuildGroup(addr.GroupBase(id), g)
	g.touched = false
	g.rebuildAt = max(rebuildMinSegs, rebuildGrowth*g.segmentCount())
}

// rebuildGroup resolves g, sheds what answers nothing and, if the group
// is still too deep, re-fits it flat. A no-op rebuild keeps g's answer
// memo, a shedding one rewrites it and a flatten drops it (memo.go).
func (t *Table) rebuildGroup(base addr.LPA, g *group) {
	rb := &t.rb
	if levels := t.resolve(base, g); levels <= maxGroupLevels {
		// A CRB entry costs its offsets plus a separator.
		bytes := len(rb.live)*SegmentBytes + len(rb.arena) + rb.approx
		if bytes == g.footprint() && levels == g.depth() {
			if g.memo.valid {
				noteMemo(memoKept, 1)
			}
			return // every claim still answers, nothing can sink
		}
		rb.sortByStart(rb.live)
		t.install(g, rb.live, levels)
		t.rewriteMemo(g)
		return
	}

	// Too deep even so: re-fit the group flat.
	levels := t.flatten(base)
	t.install(g, rb.claims, levels)
	g.memo.changed()
}

// flatten builds rb.claims — a γ = 0 re-fit of the ground-truth slots
// plus the approximate segments, which cannot be dissolved — and packs
// it, returning the level count. Every re-fitted slot is answered by the
// accurate claim fitted from it, whatever level the claim lands on:
// claims share no LPA, an accurate claim answers only its stride points,
// and an approximate one only its CRB slots.
func (t *Table) flatten(base addr.LPA) int {
	rb := &t.rb
	rb.truth = rb.truth[:0]
	for o, st := range rb.state {
		if st == slotTruth {
			rb.truth = append(rb.truth, addr.Mapping{LPA: base + addr.LPA(o), PPA: rb.ppa[o]})
		}
	}
	rb.claims = rb.claims[:0]
	learned := t.learner.learn(rb.truth, 0)
	for i := range learned {
		addClaim(&rb.claims, &learned[i].Seg, 0)
	}
	nFit := len(rb.claims)
	for i := range rb.live {
		if !rb.live[i].seg.Accurate() {
			rb.claims = append(rb.claims, rb.live[i])
		}
	}
	levels := rb.pack()
	if levels > maxGroupLevels {
		// The approximate segments interleave too deeply to stack as they
		// are: cut them into range-disjoint pieces, which share a level.
		rb.claims = rb.claims[:nFit]
		rb.splitKept(base)
		levels = rb.pack()
	}
	return levels
}

// resolve gives every slot of g to its topmost claim (rb.state, rb.owner,
// and rb.ppa for accurate claims) and lists the segments that won any,
// cut to what they won, in rb.live — top level first, each level in
// start order, each with the level it answered from — sunk as they come
// (sink). It returns the level count the sunk claims occupy and counts
// the approximate ones in rb.approx.
func (t *Table) resolve(base addr.LPA, g *group) (levels int) {
	rb := &t.rb
	rb.state = [addr.GroupSize]uint8{}
	rb.depth = [addr.GroupSize]int16{}
	rb.live, rb.arena, rb.approx = rb.live[:0], rb.arena[:0], 0
	for li := 0; li < g.depth(); li++ {
		segs := g.level(li).segs
		for si := range segs {
			s := &segs[si]
			if s.Accurate() {
				// Walk the stride points, each one page past the last,
				// and keep the segment cut to the span it won.
				first, last, ppa, p0 := -1, 0, s.p0, s.p0
				for o, end := int(s.Start()), int(s.Start())+int(s.L); o <= end; o += int(s.stride) {
					if rb.state[o] == slotFree {
						rb.state[o], rb.ppa[o], rb.owner[o] = slotTruth, ppa, int16(len(rb.live))
						if first < 0 {
							first, p0 = o, ppa
						}
						last = o
					}
					ppa++
				}
				if first >= 0 {
					c := addClaim(&rb.live, s, li)
					c.seg.SLPA, c.seg.L, c.seg.p0 = base+addr.LPA(first), uint8(last-first), p0
					levels = max(levels, rb.sink(c, first, last))
				}
				continue
			}
			e := g.crb.entryFor(s.Start())
			if e == nil {
				continue
			}
			// The segment keeps its slots as predictions.
			start := len(rb.arena)
			for _, o := range e.lpas {
				if rb.state[o] == slotFree {
					rb.state[o], rb.owner[o] = slotKept, int16(len(rb.live))
					rb.arena = append(rb.arena, o)
				}
			}
			if len(rb.arena) > start {
				c := addClaim(&rb.live, s, li)
				rb.own(c, base, start)
				rb.approx++
				levels = max(levels, rb.sink(c, int(rb.arena[start]), int(rb.arena[len(rb.arena)-1])))
			}
		}
	}
	return levels
}

// addClaim appends a claim of seg, answered from level from, to *cs and
// returns it, growing the slice only at capacity.
func addClaim(cs *[]claim, seg *Segment, from int) *claim {
	n := len(*cs)
	if n == cap(*cs) {
		*cs = append(*cs, claim{})
	}
	*cs = (*cs)[:n+1]
	c := &(*cs)[n]
	*c = claim{seg: *seg, from: int32(from)}
	return c
}

// own makes the arena's offsets from start on (ascending) the LPAs
// approximate claim c answers.
func (rb *rebuildBuf) own(c *claim, base addr.LPA, start int) {
	c.lo, c.hi = int32(start), int32(len(rb.arena))
	c.seg.cut(base, rb.arena[start], rb.arena[len(rb.arena)-1])
}

// sink assigns live claim c, cut to the offsets [first, last], newest
// first, the shallowest level below everything already placed that its
// cut range overlaps, and returns
// the level count that leaves. An accurate segment still claims the
// interior stride LPAs it lost, so range overlap has to keep the winner
// above it; segments of one old level never overlap, so neither do
// those of a new one.
func (rb *rebuildBuf) sink(c *claim, first, last int) int {
	span := rb.depth[first : last+1]
	li := int16(0)
	for _, d := range span {
		li = max(li, d)
	}
	for j := range span {
		span[j] = li + 1
	}
	c.level = int32(li)
	return int(li) + 1
}

// splitKept appends the approximate segments to rb.claims cut
// at every change of owner among their slots, so no two pieces' ranges
// overlap.
func (rb *rebuildBuf) splitKept(base addr.LPA) {
	cur, start := int16(-1), 0
	flush := func() {
		if cur >= 0 {
			rb.claims = append(rb.claims, claim{seg: rb.live[cur].seg})
			rb.own(&rb.claims[len(rb.claims)-1], base, start)
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
	var used [addr.GroupSize / 64]uint64 // start offsets in use
	for i := range claims {
		o := claims[i].seg.Start()
		rb.at[o] = int16(i)
		used[o/64] |= 1 << (o % 64)
	}
	if cap(rb.byStart) < len(claims) {
		rb.byStart = make([]int16, len(claims))
	}
	out, n := rb.byStart[:len(claims)], 0
	for w, word := range used {
		for ; word != 0; word &= word - 1 {
			out[n] = rb.at[w*64+bits.TrailingZeros64(word)]
			n++
		}
	}
	rb.byStart = out
}

// pack assigns every re-fit claim the first level whose segments all end
// before it starts, visiting claims by start offset (left in rb.byStart
// for install), and returns the level count. The claims share no LPA, so any level order answers the
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
		c.level = int32(li)
	}
	return len(rb.lvlEnd)
}

// install replaces g's levels and CRB with claims (each assigned one of
// levels levels, and rb.byStart their start order). The claims are
// written in start order straight into their levels' windows of the
// group's array, which grows only if the group now holds more segments
// than it ever did.
func (t *Table) install(g *group, claims []claim, levels int) {
	rb := &t.rb

	// Size each level's window, deepest first, then fill them.
	if cap(rb.next) < levels {
		rb.next = make([]int32, levels)
	}
	rb.next = rb.next[:levels]
	clear(rb.next)
	for i := range claims {
		rb.next[levels-1-int(claims[i].level)]++
	}
	g.ends = g.ends[:0]
	end := int32(0)
	for d, n := range rb.next {
		rb.next[d] = end
		end += n
		g.ends = append(g.ends, end)
	}
	g.reset(len(claims))
	g.crb.reset()
	for _, ci := range rb.byStart {
		c := &claims[ci]
		d := levels - 1 - int(c.level)
		p := rb.next[d]
		rb.next[d]++
		g.segs[p], g.keys[p] = c.seg, c.seg.Start()
		if !c.seg.Accurate() {
			g.crb.add(rb.arena[c.lo:c.hi])
		}
	}
}

// CheckShape audits every resident group against the bounds the rebuild
// triggers maintain (see the constants above): at most maxGroupLevels
// levels, and a footprint of at most shapeBytesPerLPA per live LPA (or
// the rebuildMinSegs floor, for sparsely written groups). It also
// fails a group whose valid answer memo differs from what its levels
// answer (memo.go). It resolves the levels directly, so it neither reads
// nor fills a memo; it changes no group and touches only resident ones.
func (t *Table) CheckShape() error {
	t.settle()
	rb := &t.rb
	for id, g := range t.groups {
		if g == nil {
			continue
		}
		if n := g.depth(); n > maxGroupLevels {
			return fmt.Errorf("group %d: %d levels, bound %d", id, n, maxGroupLevels)
		}
		t.resolve(addr.GroupBase(addr.GroupID(id)), g)
		live := 0
		for _, st := range rb.state {
			if st != slotFree {
				live++
			}
		}
		bound := max(shapeBytesPerLPA*live, (SegmentBytes+1)*rebuildMinSegs+live)
		if b := g.footprint(); b > bound {
			return fmt.Errorf("group %d: %d B for %d live LPAs, bound %d B", id, b, live, bound)
		}
		if err := t.checkMemo(addr.GroupID(id), g); err != nil {
			return err
		}
	}
	return nil
}
