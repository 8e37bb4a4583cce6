package core

import (
	"leaftl/internal/addr"
)

// Table is the learned log-structured address-mapping table (paper §3.4,
// Figure 14 structure 5+6). The LPA space is partitioned into 256-LPA
// groups; each group holds a stack of levels, newest on top. Segments
// within one level are sorted by starting LPA and never overlap; segments
// in different levels may overlap, with the upper level always holding the
// more recent mapping.
//
// Layout is chosen for the lookup path: groups live in a dense slice
// indexed by group ID (no map hashing — an SSD's LPA space is bounded and
// dense, so the pointer array costs well under a byte per logical page),
// and each level keeps a parallel array of 4-byte starting-LPA keys so
// the binary search walks a compact key array instead of striding across
// full Segment structs.
//
// Table is not safe for concurrent use; the device serializes every call.
// Update and Relearn may spread one batch over helper goroutines
// (parallel.go), but they return only once every helper is done.
type Table struct {
	gamma   int
	groups  []*group // indexed by GroupID; nil = group never written
	nGroups int

	// bitmapOn enables predicted-exact bitmap maintenance (exact.go):
	// mutations verify each written LPA's post-insert prediction and
	// record exactness, and Lookup reports set bits. Off (the default),
	// the bitmap stays all-zero and every code path is byte-identical to
	// a table without the feature.
	bitmapOn bool

	// Statistics are maintained incrementally at every point a segment
	// enters or leaves a level, a level is added or removed, or a CRB
	// mutates — Stats() and SizeBytes() are O(1) in the table size
	// (internal/experiments reads them per simulation step, and the SSD
	// device resizes its data cache from SizeBytes after every flush).
	nSegments   int
	nAccurate   int
	crbBytes    int
	totalLevels int
	levelFreq   []int // levelFreq[n] = number of groups with exactly n levels

	// Reusable scratch for the mutation path, so steady-state updates
	// perform amortized O(1) allocations. mark is a generation-stamped
	// membership set over group offsets (mark[o] == markGen ⇔ offset o is
	// in the incoming segment's LPA set): bumping markGen clears it in
	// O(1) instead of zeroing 256 bytes per victim.
	mark    [addr.GroupSize]uint64
	markGen uint64
	offs    []uint8
	victims []Segment
	edits   []boundaryEdit
	learner learnBuf

	// refitter is a second learn buffer for the bitmap path's γ=0
	// refits, which run while results of t.learner are still pending
	// insertion (a learnBuf's output is only valid until its next learn
	// call, so the nested fits need their own scratch).
	refitter learnBuf

	// failed collects the pairs a fitted segment mispredicts: the
	// verify-at-learn triage fills it per approximate segment, and
	// refreshExactBits reuses it once the triage is done.
	failed []addr.Mapping

	// rb is the whole-group rebuild's scratch (rebuild.go).
	rb rebuildBuf

	// Parallel group commit (parallel.go): the batch in flight, one
	// worker table per pool helper it may enlist (grown on first use),
	// and a test hook capping the worker count (0: GOMAXPROCS).
	batch      commitBatch
	workers    []*Table
	maxWorkers int
}

// group is the per-256-LPA-group state: the level stack, the group's
// conflict-resolution buffer for approximate segments, and its
// predicted-exact bitmap (exact.go).
type group struct {
	levels []level
	crb    crb
	exact  exactBits

	// Rebuild trigger state (rebuild.go), not part of the wire record:
	// rebuildAt is the segment count past which the next mutation
	// rebuilds the group, touched whether the group was mutated since
	// its last rebuild attempt. Both are re-armed from the decoded shape
	// when a group is installed from flash.
	rebuildAt int
	touched   bool
}

// level is one sorted, pairwise-disjoint run of segments. keys mirrors
// segs (keys[i] == the group offset of segs[i].SLPA) purely for search
// locality: a level never crosses its 256-LPA group, so one byte per key
// suffices and a whole level's keys fit in one or two cache lines.
type level struct {
	keys []uint8
	segs []Segment
}

func (l *level) len() int { return len(l.segs) }

// search returns the index of the first segment whose starting offset is
// ≥ off (pass uint16 so "offset+1" probes past 255 work).
//
// The level is itself searched with a learned guess: start offsets are
// spread over the 256-LPA group, so off·n/256 interpolates within a few
// slots of the answer on realistic workloads. Two probes either confirm
// a ±8 window around the guess — finished with a short scan over one or
// two cache lines of byte keys — or fall back to plain binary search, so
// skewed levels cost O(log n) as before.
func (l *level) search(off uint16) int {
	keys := l.keys
	lo, hi := 0, len(keys)
	if hi > 8 {
		const w = 8
		g := int(off) * hi >> 8
		if g >= hi {
			g = hi - 1
		}
		if uint16(keys[g]) < off {
			lo = g + 1
			if e := g + w; e < hi && uint16(keys[e]) >= off {
				hi = e + 1
			}
		} else {
			hi = g + 1
			if s := g - w; s >= 0 && uint16(keys[s]) < off {
				lo = s + 1
			}
		}
		if hi-lo <= w+1 {
			for lo < hi && uint16(keys[lo]) < off {
				lo++
			}
			return lo
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint16(keys[mid]) < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert places seg at position pos, keeping keys and segs in step.
func (l *level) insert(pos int, seg Segment) {
	l.keys = append(l.keys, 0)
	copy(l.keys[pos+1:], l.keys[pos:])
	l.keys[pos] = seg.Start()
	l.segs = append(l.segs, Segment{})
	copy(l.segs[pos+1:], l.segs[pos:])
	l.segs[pos] = seg
}

// remove deletes the segment at position pos.
func (l *level) remove(pos int) {
	l.keys = append(l.keys[:pos], l.keys[pos+1:]...)
	l.segs = append(l.segs[:pos], l.segs[pos+1:]...)
}

// replaceRange replaces segments [lo, hi) with seg (hi > lo).
func (l *level) replaceRange(lo, hi int, seg Segment) {
	l.keys[lo] = seg.Start()
	l.keys = append(l.keys[:lo+1], l.keys[hi:]...)
	l.segs[lo] = seg
	l.segs = append(l.segs[:lo+1], l.segs[hi:]...)
}

// LookupResult carries per-lookup diagnostics used by the paper's
// evaluation (Figure 23: levels visited; §4.5 lookup cost).
type LookupResult struct {
	// Levels is how many levels were examined, including the one that
	// answered.
	Levels int
	// Approx is true when the answering segment is approximate, i.e. the
	// returned PPA may be off by up to ±gamma and must be verified
	// against the OOB reverse mapping (§3.5).
	Approx bool
	// Redirected is true when the CRB redirected the lookup from the
	// range-matching segment to the true owning segment (Figure 9).
	Redirected bool
	// Exact is true when the answering segment is approximate but the
	// group's predicted-exact bitmap proves the returned PPA lands on the
	// live page: the device may issue one flash read with no OOB
	// verification probe budget. Always false while the bitmap is
	// disabled.
	Exact bool
}

// NewTable returns an empty mapping table with the given error bound
// gamma (in pages). gamma = 0 admits only accurate segments.
func NewTable(gamma int) *Table {
	if gamma < 0 {
		gamma = 0
	}
	return &Table{
		gamma:     gamma,
		levelFreq: make([]int, 1),
	}
}

// Gamma returns the table's error bound.
func (t *Table) Gamma() int { return t.gamma }

// EnableExactBitmap turns on predicted-exact bitmap maintenance for the
// life of the table (there is no way back: disabling would leave stale
// set bits). Bits already present — e.g. restored from a snapshot
// taken by a bitmap-enabled table — become live immediately.
func (t *Table) EnableExactBitmap() { t.bitmapOn = true }

// ExactBitmapEnabled reports whether the table maintains predicted-exact
// bitmaps.
func (t *Table) ExactBitmapEnabled() bool { return t.bitmapOn }

// Update learns segments for a batch of new LPA→PPA mappings and inserts
// them at the top level (paper §3.7 "Creation" + "Insert/Update"). pairs
// must be sorted by LPA with unique LPAs; the device's data buffer
// guarantees this (§3.3). It returns the number of segments created.
//
// The batch is fitted one group run at a time; learning already splits
// per group internally, so this is identical to a whole-batch learn. A
// group whose shape trigger fires (rebuild.go) is rebuilt before Update
// moves on, so the table's depth and size stay bounded by the group, not
// by how much has been written.
func (t *Table) Update(pairs []addr.Mapping) int {
	segs, _ := t.commit(pairs)
	return segs
}

// Relearn commits a GC relocation batch: the device relocated a window of
// victim blocks' surviving pages in ascending-LPA order, so each group's
// run is a freshly sequential layout the learner fits tightly at the
// table's γ, and the relocated slots' exactness is re-verified into the
// bitmap. It is Update that also reports how many groups the batch
// touched. The stale claims relocation just rewrote are shed when a
// touched group's rebuild trigger fires, not on every batch: a window's
// run often covers only part of its group, and resolving all 256 slots
// to shed a few claims would cost more than the fit itself. pairs must be
// sorted by LPA with unique LPAs, like Update.
func (t *Table) Relearn(pairs []addr.Mapping) (segs, groups int) {
	return t.commit(pairs)
}

// commit is the shared body of Update and Relearn. It splits the batch
// into group runs and commits each with commitRun. Runs touch disjoint
// groups, so a batch of several runs is spread over the shared helper
// pool (parallel.go) with a result identical to committing them in order
// on the caller.
func (t *Table) commit(pairs []addr.Mapping) (segs, groups int) {
	b := &t.batch
	b.ends = b.ends[:0]
	for i := 0; i < len(pairs); {
		gid := addr.Group(pairs[i].LPA)
		j := i + 1
		for j < len(pairs) && addr.Group(pairs[j].LPA) == gid {
			j++
		}
		b.ends = append(b.ends, j)
		i = j
	}
	if helpers := t.commitHelpers(len(b.ends)); helpers > 0 {
		return t.commitParallel(pairs, helpers), len(b.ends)
	}
	start := 0
	for _, end := range b.ends {
		segs += t.commitRun(pairs[start:end])
		start = end
	}
	return segs, len(b.ends)
}

// commitRun fits, inserts and verifies one group run, then rebuilds the
// group if it outgrew its trigger. It returns the segments placed.
func (t *Table) commitRun(run []addr.Mapping) int {
	learned := t.learner.learn(run, t.gamma)
	segs := t.insertRun(learned, run)
	t.refreshExactBits(run)
	t.maybeRebuild(addr.Group(run[0].LPA))
	return segs
}

// insertRun inserts a freshly fitted run, returning the number of
// segments placed. With the bitmap off it is a plain insert loop. With
// the bitmap on, each approximate segment is triaged before it reaches
// the table (triage): segments whose predictions match every committed
// pair are kept as-is (the γ slack went unused, the compression is free);
// mispredicting ones are kept only when keeping them is cheaper than
// replacing them with a γ=0 refit of their pairs. Without the triage,
// verify-at-learn would pay for both encodings on every badly fitted
// segment (the 17%-over-γ=16 table the first bench run measured); with
// only the all-or-nothing version, near-miss fits lose their approximate
// compression entirely.
func (t *Table) insertRun(learned []Learned, run []addr.Mapping) int {
	if !t.bitmapOn {
		for k := range learned {
			t.insertLearned(learned[k])
		}
		return len(learned)
	}
	n, pos := 0, 0
	for k := range learned {
		ls := learned[k]
		// The learner's output walks the run in order, each segment
		// covering the next len(LPAs) pairs.
		sub := run[pos : pos+len(ls.LPAs)]
		pos += len(sub)
		if ls.Seg.Accurate() || t.triage(ls.Seg, sub) {
			t.insertLearned(ls)
			n++
			continue
		}
		// The refit runs on the spare buffer: learned still aliases
		// t.learner's scratch, and each refit is inserted before the
		// next one reuses the buffer.
		refit := t.refitter.learn(sub, 0)
		for r := range refit {
			t.insertLearned(refit[r])
		}
		n += len(refit)
	}
	return n
}

// triage decides whether a freshly fitted approximate segment is worth
// keeping, leaving the pairs it mispredicts in t.failed (sub is the
// LPA-sorted pair set the segment was fitted from). The byte costs
// compared are keep = segment + CRB claims + the accurate patches stacked
// over the failures, versus replace = one accurate segment per
// stride-clean run of the whole point set.
func (t *Table) triage(seg Segment, sub []addr.Mapping) (keep bool) {
	t.failed = t.failed[:0]
	for _, m := range sub {
		if seg.Predict(m.LPA) != m.PPA {
			t.failed = append(t.failed, m)
		}
	}
	costKeep := SegmentBytes + len(sub) + SegmentBytes*strideRuns(t.failed)
	costReplace := SegmentBytes * strideRuns(sub)
	return len(t.failed) == 0 || costKeep <= costReplace
}

// strideRuns counts the maximal stride-clean runs of an LPA-sorted pair
// set — arithmetic LPA progressions mapped to consecutive PPAs — which
// is the number of accurate segments a γ=0 fit of those pairs produces.
func strideRuns(pairs []addr.Mapping) int {
	runs := 0
	for i := 0; i < len(pairs); {
		j := i + 1
		if j < len(pairs) && pairs[j].PPA == pairs[i].PPA+1 {
			st := pairs[j].LPA - pairs[i].LPA
			for j < len(pairs) && pairs[j].LPA-pairs[j-1].LPA == st && pairs[j].PPA == pairs[j-1].PPA+1 {
				j++
			}
		}
		runs++
		i = j
	}
	return runs
}

// refreshExactBits verifies the predicted-exact bit of every written
// slot after a mutation, repairing what it cannot verify
// (verify-at-learn): the committed PPAs are ground truth here, so the
// slots whose post-insert predictions disagree are collected and
// re-fitted at γ=0 — exact segments that shadow the mispredicting
// approximate ones for exactly those LPAs. Without the refit each such
// slot's first read would pay the §3.5 double read before the miss
// path repaired the very same mapping one point at a time; fitting the
// failures as a batch costs one accurate segment per linear run
// instead of one pin per slot, and skips the wasted flash read
// entirely. Every written slot therefore leaves with its bit set.
// Verifying through Lookup (rather than trusting the fitted segment)
// makes the check robust to CRB ownership, shadowing by older levels,
// and quantization: whatever answers the next read is what gets
// verified. Slots not in pairs keep their bits — their predictions did
// not change (newer segments only answer LPAs they were learned from,
// and trims never move a surviving prediction). No-op while the bitmap
// is off.
func (t *Table) refreshExactBits(pairs []addr.Mapping) {
	if !t.bitmapOn {
		return
	}
	g := t.lookupGroup(addr.Group(pairs[0].LPA))
	if g == nil {
		return
	}
	failed := t.failed[:0]
	for i := range pairs {
		ppa, _, ok := t.Lookup(pairs[i].LPA)
		if ok && ppa == pairs[i].PPA {
			g.exact.set(addr.Offset(pairs[i].LPA))
		} else {
			failed = append(failed, pairs[i])
		}
	}
	t.failed = failed
	if len(failed) == 0 {
		return
	}
	learned := t.learner.learn(failed, 0)
	for k := range learned {
		t.insertLearned(learned[k])
	}
	for i := range failed {
		// Re-verify through the table: float32 intercepts quantize above
		// 2^24, and a refit that does not answer exactly must not arm
		// the bit (the read path would trust it blindly).
		t.proveExact(g, failed[i])
	}
}

// proveExact sets the predicted-exact bit of m's slot if the table now
// answers m.LPA with exactly m.PPA — the ground truth — and clears it
// otherwise.
func (t *Table) proveExact(g *group, m addr.Mapping) {
	if got, _, ok := t.Lookup(m.LPA); ok && got == m.PPA {
		g.exact.set(addr.Offset(m.LPA))
	} else {
		g.exact.clear(addr.Offset(m.LPA))
	}
}

// Insert places one learned segment at the top level of its group,
// merging and displacing overlapped victims (Algorithm 1, seg_update).
// With the bitmap enabled, accurate segments set their covered slots'
// predicted-exact bits (an accurate segment's predictions are its
// learned mappings — the repair path relies on this to arm the slot it
// just verified); approximate ones clear them (unverified).
func (t *Table) Insert(ls Learned) {
	ls.Seg.prime() // tolerate hand-built segments; resident ones are always primed
	t.insertLearned(ls)
	if t.bitmapOn {
		g := t.lookupGroup(ls.Seg.Group())
		for _, l := range ls.LPAs {
			off := addr.Offset(l)
			if !ls.Seg.Accurate() {
				g.exact.clear(off)
				continue
			}
			if ppa, _, ok := t.Lookup(l); ok && ppa == ls.Seg.Predict(l) {
				g.exact.set(off)
			} else {
				g.exact.clear(off)
			}
		}
	}
	t.maybeRebuild(ls.Seg.Group())
}

func (t *Table) insertLearned(ls Learned) {
	g := t.group(ls.Seg.Group())
	t.segUpdate(g, ls, 0)
}

func (t *Table) group(id addr.GroupID) *group {
	t.reserve(id)
	g := t.groups[id]
	if g == nil {
		g = &group{rebuildAt: rebuildMinSegments}
		t.groups[id] = g
		t.nGroups++
		t.levelFreq[0]++
	}
	return g
}

// reserve grows the group slice to hold slot id.
func (t *Table) reserve(id addr.GroupID) {
	for int(id) >= len(t.groups) {
		if cap(t.groups) > len(t.groups) {
			t.groups = t.groups[:cap(t.groups)]
			continue
		}
		n := 2 * cap(t.groups)
		if n < 64 {
			n = 64
		}
		if n <= int(id) {
			n = int(id) + 1
		}
		grown := make([]*group, n)
		copy(grown, t.groups)
		t.groups = grown
	}
}

// lookupGroup is the read-only counterpart of group.
func (t *Table) lookupGroup(id addr.GroupID) *group {
	if int(id) >= len(t.groups) {
		return nil
	}
	return t.groups[id]
}

// eachGroup visits every existing group in ascending group-ID order.
func (t *Table) eachGroup(f func(addr.GroupID, *group)) {
	for id, g := range t.groups {
		if g != nil {
			f(addr.GroupID(id), g)
		}
	}
}

// noteAdd / noteRemove keep the segment counters in step with segments
// entering and leaving levels.
func (t *Table) noteAdd(s Segment) {
	t.nSegments++
	if s.Accurate() {
		t.nAccurate++
	}
}

func (t *Table) noteRemove(s Segment) {
	t.nSegments--
	if s.Accurate() {
		t.nAccurate--
	}
}

// noteLevels records that g went from old to len(g.levels) levels. A
// commit worker's levelFreq holds deltas and may not yet reach old.
func (t *Table) noteLevels(g *group, old int) {
	n := len(g.levels)
	if n == old {
		return
	}
	t.totalLevels += n - old
	for len(t.levelFreq) <= max(old, n) {
		t.levelFreq = append(t.levelFreq, 0)
	}
	t.levelFreq[old]--
	t.levelFreq[n]++
}

// stampLPAs records the incoming segment's exact LPA set in the mark
// array under a fresh generation; segMerge and the CRB dedup test
// membership against it.
func (t *Table) stampLPAs(lpas []addr.LPA) {
	t.markGen++
	for _, l := range lpas {
		t.mark[addr.Offset(l)] = t.markGen
	}
}

// segUpdate implements Algorithm 1 lines 1–16: insert a segment into
// level li of group g, resolve CRB bookkeeping, merge overlapped victims
// and push still-overlapping victims down.
func (t *Table) segUpdate(g *group, ls Learned, li int) {
	g.touched = true
	old := len(g.levels)
	for len(g.levels) <= li {
		g.openLevel(len(g.levels))
	}
	t.noteLevels(g, old)
	seg := ls.Seg

	t.stampLPAs(ls.LPAs)
	// CRB bookkeeping first (Algorithm 1 lines 4–7): registering the new
	// approximate segment's LPAs evicts those LPAs from other approximate
	// entries, which may shrink or remove their segments anywhere in the
	// group. Doing this before the level insert means boundary edits can
	// never hit the incoming segment itself.
	if !seg.Accurate() {
		t.offs = t.offs[:0]
		for _, l := range ls.LPAs {
			t.offs = append(t.offs, addr.Offset(l))
		}
		pre := g.crb.sizeBytes()
		t.edits = g.crb.insertMarked(t.offs, &t.mark, t.markGen, t.edits[:0])
		t.crbBytes += g.crb.sizeBytes() - pre
		t.applyEdits(g, t.edits)
	}

	t.placeSegment(g, seg, li)
}

// placeSegment inserts seg into level li, collects the same-level victims
// whose ranges overlap it (Algorithm 1 line 8 — within a sorted,
// pairwise-disjoint level these are at most one left neighbor plus a run
// to the right), and re-homes every victim that survives the merge: back
// into this level if now disjoint, otherwise one level down (lines 9–16).
// The caller must have stamped the incoming segment's LPA set into t.mark
// (stampLPAs).
func (t *Table) placeSegment(g *group, seg Segment, li int) {
	lvl := &g.levels[li]
	startOff := uint16(seg.Start())
	endOff := startOff + uint16(seg.L)
	pos := lvl.search(startOff)
	lo := pos
	if lo > 0 && lvl.segs[lo-1].End() >= seg.SLPA {
		lo--
	}
	hi := pos
	for hi < lvl.len() && uint16(lvl.keys[hi]) <= endOff {
		hi++
	}

	t.victims = append(t.victims[:0], lvl.segs[lo:hi]...)
	if lo == hi {
		lvl.insert(pos, seg)
	} else {
		lvl.replaceRange(lo, hi, seg)
	}
	t.noteAdd(seg)

	for i := range t.victims {
		victim := t.victims[i]
		t.noteRemove(victim)
		merged, removed := t.segMerge(g, victim)
		if removed {
			continue
		}
		if merged.Overlaps(seg) {
			// Still overlapping: pop the victim to the next level; if it
			// would overlap there, give it a fresh level to avoid
			// recursive displacement (Algorithm 1 lines 13–16).
			t.pushDown(g, merged, li)
			t.noteAdd(merged)
			continue
		}
		// Disjoint after trimming: it can stay in this level.
		lvl := &g.levels[li]
		lvl.insert(lvl.search(uint16(merged.Start())), merged)
		t.noteAdd(merged)
	}
}

// openLevel inserts an empty level at index at, shifting the levels from
// there down by one. A rebuild leaves the levels it emptied behind the
// stack's length; their backing arrays are taken up again here, so a
// group that breathes between rebuilds stops allocating.
func (g *group) openLevel(at int) *level {
	var lvl level
	if n := len(g.levels); n < cap(g.levels) {
		lvl = g.levels[:n+1][n]
		lvl.keys, lvl.segs = lvl.keys[:0], lvl.segs[:0]
	}
	g.levels = append(g.levels, level{})
	copy(g.levels[at+1:], g.levels[at:])
	g.levels[at] = lvl
	return &g.levels[at]
}

// pushDown moves a displaced victim one level down, creating a dedicated
// level when it would overlap segments already there.
func (t *Table) pushDown(g *group, victim Segment, li int) {
	ni := li + 1
	if ni >= len(g.levels) {
		old := len(g.levels)
		g.openLevel(ni).insert(0, victim)
		t.noteLevels(g, old)
		return
	}
	next := &g.levels[ni]
	p := next.search(uint16(victim.Start()))
	overlaps := (p > 0 && next.segs[p-1].End() >= victim.SLPA) ||
		(p < next.len() && uint16(next.keys[p]) <= uint16(victim.Start())+uint16(victim.L))
	if overlaps {
		// Insert a brand-new level between li and ni holding only the
		// victim. Everything below keeps its relative (temporal) order.
		old := len(g.levels)
		g.openLevel(ni).insert(0, victim)
		t.noteLevels(g, old)
		return
	}
	next.insert(p, victim)
}

// segMerge implements Algorithm 2 against the stamped mark set: subtract
// the incoming segment's LPAs from the victim's, shrink the victim's
// [S, S+L] to its remaining first/last LPA, and prune the CRB for
// approximate victims. K and I are never touched, so the victim's
// surviving predictions stay valid. It returns the updated victim, or
// removed=true when nothing survives.
func (t *Table) segMerge(g *group, victim Segment) (Segment, bool) {
	first, last, any := t.survivors(g, victim)

	if !victim.Accurate() {
		pre := g.crb.sizeBytes()
		edit, ok := g.crb.removeMarked(victim.Start(), &t.mark, t.markGen)
		t.crbBytes += g.crb.sizeBytes() - pre
		if ok && edit.Removed {
			return Segment{}, true
		}
	}
	if !any {
		return Segment{}, true
	}
	victim.cut(addr.GroupBase(victim.Group()), addr.Offset(first), addr.Offset(last))
	return victim, false
}

// survivors scans the victim's encoded LPA set (Algorithm 2 get_bitmap:
// the stride progression for accurate segments, the CRB entry for
// approximate ones) and returns the first and last LPAs not claimed by
// the stamped new set — without materializing a slice.
func (t *Table) survivors(g *group, s Segment) (first, last addr.LPA, any bool) {
	if !s.Accurate() {
		e := g.crb.entryFor(s.Start())
		if e == nil {
			return 0, 0, false
		}
		base := addr.GroupBase(s.Group())
		for _, o := range e.lpas {
			if t.mark[o] == t.markGen {
				continue
			}
			l := base + addr.LPA(o)
			if !any {
				first, any = l, true
			}
			last = l
		}
		return first, last, any
	}
	st := addr.LPA(s.Stride())
	for l := s.SLPA; l <= s.End(); l += st {
		if t.mark[addr.Offset(l)] == t.markGen {
			continue
		}
		if !any {
			first, any = l, true
		}
		last = l
	}
	return first, last, any
}

// applyEdits reshapes or removes approximate segments whose CRB entries
// changed during a dedup (the paper's "update the S of the old segment
// with the adjacent LPA", Figure 9 (b)). A reshaped segment keeps its
// position: the new start stays inside the old range, which cannot cross
// a disjoint neighbor, so the level stays sorted.
func (t *Table) applyEdits(g *group, edits []boundaryEdit) {
	for _, e := range edits {
		li, idx, ok := findApprox(g, e.Old)
		if !ok {
			continue
		}
		if e.Removed {
			t.noteRemove(g.levels[li].segs[idx])
			g.levels[li].remove(idx)
			continue
		}
		seg := &g.levels[li].segs[idx]
		seg.cut(addr.GroupBase(seg.Group()), e.NewStart, e.NewLast)
		g.levels[li].keys[idx] = e.NewStart
	}
}

// findApprox locates the approximate segment with the given start offset.
// CRB invariants make that start unique among approximate segments.
func findApprox(g *group, start uint8) (level, idx int, ok bool) {
	for li := range g.levels {
		segs := g.levels[li].segs
		for i := range segs {
			if !segs[i].Accurate() && segs[i].Start() == start {
				return li, i, true
			}
		}
	}
	return 0, 0, false
}

// Lookup translates lpa using the learned table (Algorithm 1 lines
// 17–22). ok is false when no segment indexes the LPA (never written, or
// its mapping lives only in flash-resident translation pages).
//
// The hot path is allocation-free and, for accurate segments, pure
// integer arithmetic against the decoded cache: a binary search over the
// level's 4-byte key array, one modulo for the stride membership test
// (Algorithm 2 has_lpa), one divide for the anchored prediction.
func (t *Table) Lookup(lpa addr.LPA) (addr.PPA, LookupResult, bool) {
	var res LookupResult
	g := t.lookupGroup(addr.Group(lpa))
	if g == nil {
		return addr.InvalidPPA, res, false
	}
	off := addr.Offset(lpa)
	for li := range g.levels {
		lvl := &g.levels[li]
		res.Levels = li + 1
		// Last segment with start offset ≤ off; the search guarantees
		// lpa ≥ SLPA, so containment needs only the End bound.
		idx := lvl.search(uint16(off)+1) - 1
		if idx < 0 || lpa > lvl.segs[idx].End() {
			continue
		}
		seg := &lvl.segs[idx]
		if seg.Accurate() {
			d := uint32(lpa - seg.SLPA)
			if seg.L == 0 {
				if d == 0 {
					return seg.p0, res, true
				}
				continue
			}
			if d%seg.stride != 0 {
				continue
			}
			return seg.p0 + addr.PPA(d/seg.stride), res, true
		}
		owner, ok := g.crb.lookup(off)
		if !ok {
			// No approximate segment indexes this LPA; the range match
			// was incidental (Algorithm 2 has_lpa: CRB check failed).
			continue
		}
		if owner != seg.Start() {
			// The CRB says another approximate segment owns this LPA
			// (Figure 9 / example T6). That owner lives at a lower
			// level; keep descending so that any newer accurate claim
			// in between still wins.
			res.Redirected = true
			continue
		}
		res.Approx = true
		res.Exact = t.bitmapOn && g.exact.test(off)
		return seg.predictApprox(off), res, true
	}
	return addr.InvalidPPA, res, false
}

// Compact rebuilds every group mutated since its last rebuild (paper §3.7
// "Segment Compaction", done a whole group at a time — rebuild.go). The
// per-group triggers on the commit path keep depth and size bounded on
// their own; this sweep is the backstop that also tightens groups still
// under their thresholds.
func (t *Table) Compact() { t.CompactChanged() }

// CompactChanged compacts like Compact and returns the IDs of the groups
// whose encoding it changed, in ascending order. The demand-paging scheme
// marks exactly these groups dirty so periodic persistence rewrites only
// reshaped translation pages; a group the sweep left as it was (or did not
// need to look at) is not reported.
func (t *Table) CompactChanged() []addr.GroupID {
	var out []addr.GroupID
	t.eachGroup(func(id addr.GroupID, g *group) {
		if t.compactGroup(id, g) {
			out = append(out, id)
		}
	})
	return out
}

func (g *group) segmentCount() int {
	n := 0
	for i := range g.levels {
		n += g.levels[i].len()
	}
	return n
}

// footprint is the group's share of SizeBytes: encoded segments plus the
// flat CRB.
func (g *group) footprint() int {
	return g.segmentCount()*SegmentBytes + g.crb.sizeBytes()
}

// Stats summarizes the table for the paper's memory and structure
// figures (Figures 10, 12, 15, 19, 20).
type Stats struct {
	Groups       int
	Segments     int
	Accurate     int
	Approximate  int
	SegmentBytes int // Segments × 8
	CRBBytes     int // flat CRB footprint (Figure 10)
	MaxLevels    int
	TotalLevels  int // across groups, for the mean
}

// SizeBytes reports the mapping table's DRAM footprint: encoded segments
// plus CRB bytes. This is the quantity Figures 15 and 19 compare. O(1).
func (t *Table) SizeBytes() int {
	return t.nSegments*SegmentBytes + t.crbBytes
}

// Stats returns the incrementally maintained summary statistics — O(1)
// apart from the max-level scan over the (small) level-count histogram.
func (t *Table) Stats() Stats {
	s := Stats{
		Groups:       t.nGroups,
		Segments:     t.nSegments,
		Accurate:     t.nAccurate,
		Approximate:  t.nSegments - t.nAccurate,
		SegmentBytes: t.nSegments * SegmentBytes,
		CRBBytes:     t.crbBytes,
		TotalLevels:  t.totalLevels,
	}
	for n := len(t.levelFreq) - 1; n > 0; n-- {
		if t.levelFreq[n] > 0 {
			s.MaxLevels = n
			break
		}
	}
	return s
}

// recomputeStats rebuilds every incremental counter by walking the table
// (snapshot-restore path, and the cross-check in tests).
func (t *Table) recomputeStats() {
	t.nGroups, t.nSegments, t.nAccurate, t.crbBytes, t.totalLevels = 0, 0, 0, 0, 0
	t.levelFreq = append(t.levelFreq[:0], 0)
	t.eachGroup(func(_ addr.GroupID, g *group) {
		t.nGroups++
		n := len(g.levels)
		t.totalLevels += n
		for len(t.levelFreq) <= n {
			t.levelFreq = append(t.levelFreq, 0)
		}
		t.levelFreq[n]++
		g.crb.recompute()
		t.crbBytes += g.crb.sizeBytes()
		for li := range g.levels {
			for i := range g.levels[li].segs {
				t.noteAdd(g.levels[li].segs[i])
			}
		}
	})
}

// LevelCounts returns the number of levels of every group, for the
// Figure 12 distribution.
func (t *Table) LevelCounts() []int {
	out := make([]int, 0, t.nGroups)
	t.eachGroup(func(_ addr.GroupID, g *group) {
		out = append(out, len(g.levels))
	})
	return out
}

// CRBSizes returns every group's CRB byte size, for Figure 10.
func (t *Table) CRBSizes() []int {
	out := make([]int, 0, t.nGroups)
	t.eachGroup(func(_ addr.GroupID, g *group) {
		out = append(out, g.crb.sizeBytes())
	})
	return out
}

// SegmentLengths returns the number of LPA-PPA mappings each segment
// covers, for the Figure 5 distribution.
func (t *Table) SegmentLengths() []int {
	var out []int
	t.eachGroup(func(_ addr.GroupID, g *group) {
		for li := range g.levels {
			segs := g.levels[li].segs
			for i := range segs {
				out = append(out, segmentLen(g, &segs[i]))
			}
		}
	})
	return out
}

// segmentLen counts a resident segment's encoded LPAs without
// materializing them.
func segmentLen(g *group, s *Segment) int {
	if !s.Accurate() {
		if e := g.crb.entryFor(s.Start()); e != nil {
			return len(e.lpas)
		}
		return 0
	}
	if s.L == 0 {
		return 1
	}
	return int(uint32(s.L)/s.Stride()) + 1
}
