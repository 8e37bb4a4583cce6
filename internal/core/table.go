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
// Layout is chosen for the lookup path and for a host footprint that
// follows the live segments: groups live in a dense slice indexed by group
// ID (no map hashing — an SSD's LPA space is bounded and dense, so the
// pointer array costs well under a byte per logical page), and each group
// keeps all of its levels back to back in one segment array, with a
// parallel array of 1-byte starting-offset keys so the binary search walks
// a compact key array instead of striding across full Segment structs.
//
// Table is not safe for concurrent use; the device serializes every call.
// Submit leaves a batch to helper goroutines (parallel.go), and every
// other exported method but Gamma first settles the batches still
// pending, so each call sees the table every earlier batch made.
type Table struct {
	gamma  int
	groups []*group // indexed by GroupID; nil = group never written

	// bytes is the sum of the resident groups' footprints, the one
	// statistic kept as the table mutates: the device resizes its data
	// cache from SizeBytes after every flush and the pager checks it
	// after every eviction. Each group mutation — a commit run, a
	// Compact rebuild, an install or a drop — adds the group's footprint
	// after it minus the footprint before it. Stats counts the rest when
	// asked.
	bytes int

	// Reusable scratch for the mutation path, so steady-state updates
	// perform amortized O(1) allocations. mark is a generation-stamped
	// membership set over group offsets (mark[o] == markGen ⇔ offset o is
	// in the incoming segment's LPA set): bumping markGen clears it in
	// O(1) instead of zeroing 256 bytes per victim.
	mark    [addr.GroupSize]uint64
	markGen uint64
	offs    []uint8
	edits   []boundaryEdit
	learner learnBuf

	// The merge into the top level (see openTop): top is merged,
	// pend[pk:] still to merge, victims the segments pushed down so far,
	// winLo the group slot where the merge's window starts (-1 before
	// the first piece), topDepth the group's level count when the merge
	// opened, and joined how many of the victims the last landing put in
	// level 1 (the rest took a fresh level).
	top      level
	pend     level
	victims  level
	pk       int
	winLo    int
	topDepth int
	joined   int

	// rb is the whole-group rebuild's scratch (rebuild.go).
	rb rebuildBuf

	// Pipelined group commit (parallel.go): the ring of submitted
	// batches, and two test hooks: one caps the worker count (0:
	// GOMAXPROCS), the other holds a settling caller's claims until a
	// helper has taken a run.
	ring        commitRing
	maxWorkers  int
	awaitHelper bool
}

// group is the per-256-LPA-group state: the level stack and the group's
// conflict-resolution buffer for approximate segments.
//
// The level stack is one segment array, segs, holding every level back
// to back, deepest level first, so the top level — where every commit
// inserts — is the array's tail and an insert there moves only the top
// level's segments. keys mirrors segs (keys[i] == the group offset of
// segs[i].SLPA) purely for search locality: a level never crosses its
// 256-LPA group, so one byte per key suffices and a whole level's keys fit
// in one or two cache lines. ends[d] is one past the last slot of the
// level at storage depth d (0 = deepest), so the level at stack index li
// (0 = top) is the window ending at ends[len(ends)-1-li]. The arrays grow
// by doubling when the group's segment count outgrows them, which is the
// layout's only allocation: a group that breathes between rebuilds reuses
// its array, and no storage outlives the level it held.
type group struct {
	keys []uint8
	segs []Segment
	ends []int32
	crb  crb

	// Rebuild trigger state (rebuild.go), not part of the wire record:
	// rebuildAt is the segment count past which the next mutation
	// rebuilds the group, touched whether the group was mutated since
	// its last rebuild attempt. Both are re-armed from the decoded shape
	// when a group is installed from flash.
	rebuildAt int
	touched   bool

	// memo answers the group's slots while its answers stay as they are
	// (memo.go); host working state, not part of the wire record.
	memo answerMemo
}

// minGroupSegs is the segment capacity a group's array starts at.
const minGroupSegs = 4

// level is a read-only view of one level: its window of the group's key
// and segment arrays, one sorted, pairwise-disjoint run of segments. A
// view allocates nothing and is valid until the group's next mutation.
// The merge scratch (openTop) is a level with arrays of its own.
type level struct {
	keys []uint8
	segs []Segment
}

func (l level) len() int { return len(l.segs) }

// searchKeys returns the index of the first key ≥ off (pass uint16 so
// "offset+1" probes past 255 work).
//
// The level is itself searched with a learned guess: start offsets are
// spread over the 256-LPA group, so off·n/256 interpolates within a few
// slots of the answer on realistic workloads. Two probes either confirm
// a ±8 window around the guess — finished with a short scan over one or
// two cache lines of byte keys — or fall back to plain binary search, so
// skewed levels cost O(log n) as before.
func searchKeys(keys []uint8, off uint16) int {
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

// depth returns the number of levels in g's stack.
func (g *group) depth() int { return len(g.ends) }

// window returns the bounds [lo, hi) of level li (0 = top) in g.segs.
func (g *group) window(li int) (lo, hi int) {
	d := len(g.ends) - 1 - li
	if d > 0 {
		lo = int(g.ends[d-1])
	}
	return lo, int(g.ends[d])
}

// level returns the view of level li (0 = top).
func (g *group) level(li int) level {
	lo, hi := g.window(li)
	return level{keys: g.keys[lo:hi:hi], segs: g.segs[lo:hi:hi]}
}

// grow makes room for n more segments, doubling the arrays until they
// hold the group's new count.
func (g *group) grow(n int) {
	need := len(g.segs) + n
	if need <= cap(g.segs) {
		return
	}
	c := max(cap(g.segs), minGroupSegs)
	for c < need {
		c *= 2
	}
	segs := make([]Segment, len(g.segs), c)
	copy(segs, g.segs)
	keys := make([]uint8, len(g.keys), c)
	copy(keys, g.keys)
	g.segs, g.keys = segs, keys
}

// reset empties the arrays and sizes them for n segments to be written
// in place, growing them only if n exceeds their capacity.
func (g *group) reset(n int) {
	g.segs, g.keys = g.segs[:0], g.keys[:0]
	g.grow(n)
	g.segs, g.keys = g.segs[:n], g.keys[:n]
}

// remove deletes the segment at slot p of g.segs. The levels whose
// windows end past p are the one holding it and those above.
func (g *group) remove(p int) {
	g.segs = append(g.segs[:p], g.segs[p+1:]...)
	g.keys = append(g.keys[:p], g.keys[p+1:]...)
	for d := range g.ends {
		if int(g.ends[d]) > p {
			g.ends[d]--
		}
	}
}

// openLevel adds an empty level on top of g's stack.
func (g *group) openLevel() {
	if g.ends == nil {
		g.ends = make([]int32, 0, maxGroupLevels+1)
	}
	g.ends = append(g.ends, int32(len(g.segs)))
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
}

// NewTable returns an empty mapping table with the given error bound
// gamma (in pages). gamma = 0 admits only accurate segments.
func NewTable(gamma int) *Table {
	if gamma < 0 {
		gamma = 0
	}
	return &Table{gamma: gamma}
}

// Gamma returns the table's error bound.
func (t *Table) Gamma() int { return t.gamma }

// Update learns segments for a batch of new LPA→PPA mappings and inserts
// them at the top level (paper §3.7 "Creation" + "Insert/Update"). pairs
// must be sorted by LPA with unique LPAs; the device's data buffer
// guarantees this (§3.3), and so does GC relocation, which moves a window
// of victim blocks' surviving pages in ascending-LPA order. It returns the
// number of groups the batch touched.
//
// The batch is fitted one group run at a time; learning already splits
// per group internally, so this is identical to a whole-batch learn. A
// group whose shape trigger fires (rebuild.go) is rebuilt before Update
// moves on, so the table's depth and size stay bounded by the group, not
// by how much has been written; the stale claims a GC relocation just
// rewrote are shed then too, not on every batch. Update is Submit, then
// settle: runs touch disjoint groups, so a batch of several runs is
// spread over the shared helper pool (parallel.go) with a result
// identical to committing them in order on the caller.
func (t *Table) Update(pairs []addr.Mapping) int {
	groups := t.submit(pairs, 0, true)
	t.settle()
	return groups
}

// commitRun fits one group run, merges the fitted pieces into the
// group's top level in one pass, then rebuilds the group if it outgrew
// its trigger. A valid answer memo is patched with what the commit
// moved, and a group with no memo restarts its fill count (memo.go).
// t.bytes takes the group's change in footprint.
func (t *Table) commitRun(run []addr.Mapping) {
	id := addr.Group(run[0].LPA)
	g := t.group(id)
	before := g.footprint()
	g.memo.reads = 0
	t.openTop(g)
	learned := t.learner.learn(run, t.gamma)
	for k := range learned {
		t.mergePiece(g, &learned[k])
	}
	t.closeTop(g)
	if g.memo.valid {
		t.patchMemo(g, run, learned)
	}
	t.maybeRebuild(id)
	t.bytes += g.footprint() - before
}

func (t *Table) group(id addr.GroupID) *group {
	t.reserve(id)
	g := t.groups[id]
	if g == nil {
		g = &group{rebuildAt: rebuildMinSegs}
		t.groups[id] = g
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

// stampLPAs records the incoming segment's exact LPA set in the mark
// array under a fresh generation; segMerge and the CRB dedup test
// membership against it.
func (t *Table) stampLPAs(lpas []addr.LPA) {
	t.markGen++
	for _, l := range lpas {
		t.mark[addr.Offset(l)] = t.markGen
	}
}

// The top level is the only level a commit inserts into, and a commit
// hands it a learner's output: pieces in ascending LPA order with
// pairwise disjoint ranges. So a commit merges them into the top level
// in one left-to-right pass instead of searching and shifting the level
// once per piece, with the result of inserting them one at a time
// (Algorithm 1 lines 1–16):
//
//   - openTop opens the merge. The first piece starts the merge's window
//     at the first top-level segment that does not end before it; what
//     lies before stays where it is. From there t.pend (from t.pk on) is
//     what is still to merge — a view of the group's top level — and
//     t.top what has been merged.
//   - mergePiece passes the segments wholly left of the piece, trims the
//     ones it overlaps and places it. A trimmed victim that survives lies
//     wholly left of the piece (it stays before it), wholly right (it is
//     carried back to the head of t.pend, where the next piece may meet
//     it), or across it (queued in t.victims to be pushed down).
//   - closeTop writes the merged window back over what it consumed and
//     lands the queued victims below the top level (group.land), all in
//     one shift of the top level.
//
// A CRB dedup may reshape or remove approximate segments anywhere in
// the group; mergePiece then lands the merge so far, applies the edits
// to the group as it stands, and reopens. The merge scratch belongs to
// the Table, so every commit worker has its own (parallel.go).

// openTop opens a merge into g's top level, creating the level in a
// group that has none.
func (t *Table) openTop(g *group) {
	g.touched = true
	t.topDepth = g.depth()
	if t.topDepth == 0 {
		g.openLevel()
	}
	t.winLo = -1
	t.top.keys, t.top.segs = t.top.keys[:0], t.top.segs[:0]
	t.victims.keys, t.victims.segs = t.victims.keys[:0], t.victims.segs[:0]
	t.pend, t.pk = level{}, 0
}

// startWindow starts the merge's window at the first top-level segment
// of g that does not end before lpa.
func (t *Table) startWindow(g *group, lpa addr.LPA) {
	lo, _ := g.window(0)
	top := level{keys: g.keys[lo:], segs: g.segs[lo:]}
	t.winLo = lo + top.firstEnding(lpa)
	t.pend, t.pk = level{keys: g.keys[t.winLo:], segs: g.segs[t.winLo:]}, 0
}

// firstEnding returns the index of l's first segment that does not end
// before lpa. The level is sorted and disjoint, so only the last segment
// starting at or before lpa can reach it.
func (l level) firstEnding(lpa addr.LPA) int {
	// Consecutive pieces of a run lie close together: probe a few
	// segments before searching the rest.
	off := uint16(addr.Offset(lpa))
	i := 0
	for i < len(l.keys) && i < 4 && uint16(l.keys[i]) <= off {
		i++
	}
	if i == 4 {
		i += searchKeys(l.keys[4:], off+1)
	}
	if i--; i < 0 || l.segs[i].End() < lpa {
		i++
	}
	return i
}

// closeTop lands the merge in g and sets the victims' slots in g's valid
// answer memo.
func (t *Table) closeTop(g *group) {
	t.joined = 0
	if t.winLo >= 0 {
		t.joined = g.land(t.winLo, t.pk, t.top, t.victims)
	}
	if g.memo.valid {
		t.patchVictims(g)
	}
}

// land writes a merge back into g's top level: win replaces the consumed
// slots from slot winLo on, and down — the victims the merge pushed
// down, ascending and pairwise disjoint — lands below the top level where
// Algorithm 1 lines 13–16 put them one at a time. A victim that overlaps
// nothing in level 1 joins it; the first one that does overlap gets a
// fresh level between level 1 and the top, and every later victim joins
// it there, since it overlaps no other victim. So level 1 takes a prefix
// of down in one backward merge, the fresh level the rest, and the top
// level shifts once. It returns the length of that prefix.
func (g *group) land(winLo, consumed int, win, down level) (joined int) {
	k := g.joinLevel1(down)
	v := down.len()
	l1lo, l1hi := 0, 0 // level 1's window, empty when there is none
	if g.depth() > 1 {
		l1lo, l1hi = g.window(1)
	}
	n, at, grown := len(g.segs), winLo+consumed, win.len()-consumed
	g.grow(v + grown)
	// Slicing to the larger length stays within the arrays' capacity
	// when the top level shrank.
	size := n + v + grown
	g.segs, g.keys = g.segs[:max(n, size)], g.keys[:max(n, size)]
	// The top level's tail, then its head, move right by v past the
	// victims and the tail also by what the window grew.
	g.move(at+v+grown, at, n-at)
	if v > 0 {
		g.move(l1hi+v, l1hi, winLo-l1hi)
	}
	copy(g.segs[winLo+v:], win.segs)
	copy(g.keys[winLo+v:], win.keys)
	copy(g.segs[l1hi+k:], down.segs[k:])
	copy(g.keys[l1hi+k:], down.keys[k:])
	// Merge down[:k] into level 1 from the back, in place.
	i, w := l1hi-1, l1hi+k-1
	for j := k - 1; j >= 0; w-- {
		if i >= l1lo && g.keys[i] > down.keys[j] {
			g.segs[w], g.keys[w] = g.segs[i], g.keys[i]
			i--
		} else {
			g.segs[w], g.keys[w] = down.segs[j], down.keys[j]
			j--
		}
	}
	g.segs, g.keys = g.segs[:size], g.keys[:size]

	if m := len(g.ends); m > 1 {
		g.ends[m-2] += int32(k)
	}
	if k < v { // the fresh level, below the top
		g.ends = append(g.ends[:len(g.ends)-1], int32(l1hi+v), 0)
	}
	g.ends[len(g.ends)-1] = int32(size)
	return k
}

// joinLevel1 counts the leading victims of down that overlap nothing in
// g's level 1 (none when g has no level below the top).
func (g *group) joinLevel1(down level) int {
	if down.len() == 0 || g.depth() < 2 {
		return 0
	}
	next, p := g.level(1), 0
	for i := range down.segs {
		// The victims ascend, so each one's search resumes at the last.
		v := &down.segs[i]
		p += searchKeys(next.keys[p:], uint16(v.Start()))
		if (p > 0 && next.segs[p-1].End() >= v.SLPA) ||
			(p < next.len() && uint16(next.keys[p]) <= uint16(v.Start())+uint16(v.L)) {
			return i
		}
	}
	return down.len()
}

// move copies the n slots from src on to dst, keys and segments alike.
func (g *group) move(dst, src, n int) {
	copy(g.segs[dst:dst+n], g.segs[src:src+n])
	copy(g.keys[dst:dst+n], g.keys[src:src+n])
}

// appendRange appends every segment of r to l.
func (l *level) appendRange(r level) {
	l.keys = append(l.keys, r.keys...)
	l.segs = append(l.segs, r.segs...)
}

// push appends seg to l.
func (l *level) push(seg Segment) {
	l.keys = append(l.keys, seg.Start())
	l.segs = append(l.segs, seg)
}

// tail returns l's segments from i on.
func (l level) tail(i int) level { return level{keys: l.keys[i:], segs: l.segs[i:]} }

// mergePiece merges one piece into the open top level: CRB bookkeeping,
// then Algorithm 1 line 8's victims — the segments whose ranges overlap
// the piece, a run of the pending level — merged by Algorithm 2 and
// re-homed (lines 9–16).
func (t *Table) mergePiece(g *group, ls *Learned) {
	seg := ls.Seg
	t.stampLPAs(ls.LPAs)
	// CRB bookkeeping first (Algorithm 1 lines 4–7): registering the new
	// approximate segment's LPAs evicts those LPAs from other approximate
	// entries, which may shrink or remove their segments anywhere in the
	// group. Doing this before the merge means boundary edits can never
	// hit the incoming segment itself.
	if !seg.Accurate() {
		t.offs = t.offs[:0]
		for _, l := range ls.LPAs {
			t.offs = append(t.offs, addr.Offset(l))
		}
		t.edits = g.crb.insertMarked(t.offs, &t.mark, t.markGen, t.edits[:0])
		if len(t.edits) > 0 {
			t.closeTop(g)
			t.applyEdits(g, t.edits)
			t.openTop(g)
		}
	}
	if t.winLo < 0 {
		t.startWindow(g, seg.SLPA)
	}

	// Pass the pending segments wholly left of the piece.
	n := t.pend.tail(t.pk).firstEnding(seg.SLPA)
	t.top.appendRange(level{keys: t.pend.keys[t.pk : t.pk+n], segs: t.pend.segs[t.pk : t.pk+n]})
	t.pk += n

	carry := false
	for t.pk < len(t.pend.segs) && t.pend.segs[t.pk].SLPA <= seg.End() {
		// The victim is trimmed in its slot, which the merge has consumed.
		victim := &t.pend.segs[t.pk]
		t.pk++
		if t.segMerge(g, victim) {
			continue
		}
		switch {
		case victim.Overlaps(seg):
			// Still overlapping: pop the victim to the next level; if it
			// would overlap there, give it a fresh level to avoid
			// recursive displacement (Algorithm 1 lines 13–16). closeTop
			// lands every victim of the merge at once.
			t.victims.push(*victim)
		case victim.End() < seg.SLPA:
			t.top.push(*victim)
		default:
			// Only the last victim reaches past the piece: it is carried
			// back to the head of the pending segments, in its slot.
			carry = true
		}
	}
	t.top.push(seg)
	if carry {
		t.pk--
		t.pend.keys[t.pk] = t.pend.segs[t.pk].Start()
	}
}

// segMerge implements Algorithm 2 against the stamped mark set: subtract
// the incoming segment's LPAs from the victim's, shrink the victim's
// [S, S+L] to its remaining first/last LPA, and prune the CRB for
// approximate victims. K and I are never touched, so the victim's
// surviving predictions stay valid. It trims the victim in place, or
// reports removed when nothing survives.
func (t *Table) segMerge(g *group, victim *Segment) (removed bool) {
	first, last, any := t.survivors(g, victim)

	if !victim.Accurate() {
		edit, ok := g.crb.removeMarked(victim.Start(), &t.mark, t.markGen)
		if ok && edit.Removed {
			return true
		}
	}
	if !any {
		return true
	}
	victim.cut(addr.GroupBase(victim.Group()), addr.Offset(first), addr.Offset(last))
	return false
}

// survivors scans the victim's encoded LPA set (Algorithm 2 get_bitmap:
// the stride progression for accurate segments, the CRB entry for
// approximate ones) and returns the first and last LPAs not claimed by
// the stamped new set — without materializing a slice.
func (t *Table) survivors(g *group, s *Segment) (first, last addr.LPA, any bool) {
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
	// The stamped set is the piece's LPAs, so the survivors nearest
	// either end of the progression are found within that many steps.
	st := addr.LPA(s.Stride())
	for l := s.SLPA; l <= s.End(); l += st {
		if t.mark[addr.Offset(l)] != t.markGen {
			first, any = l, true
			break
		}
	}
	if !any {
		return 0, 0, false
	}
	for last = s.SLPA + addr.LPA(s.L)/st*st; t.mark[addr.Offset(last)] == t.markGen; last -= st {
	}
	return first, last, true
}

// applyEdits reshapes or removes approximate segments whose CRB entries
// changed during a dedup (the paper's "update the S of the old segment
// with the adjacent LPA", Figure 9 (b)). A reshaped segment keeps its
// position: the new start stays inside the old range, which cannot cross
// a disjoint neighbor, so the level stays sorted.
func (t *Table) applyEdits(g *group, edits []boundaryEdit) {
	for _, e := range edits {
		p, ok := findApprox(g, e.Old)
		if !ok {
			continue
		}
		if e.Removed {
			g.remove(p)
			continue
		}
		seg := &g.segs[p]
		seg.cut(addr.GroupBase(seg.Group()), e.NewStart, e.NewLast)
		g.keys[p] = e.NewStart
	}
}

// findApprox locates the slot of the approximate segment with the given
// start offset. CRB invariants make that start unique among approximate
// segments, so the whole array is scanned without regard to level.
func findApprox(g *group, start uint8) (p int, ok bool) {
	for i := range g.segs {
		if !g.segs[i].Accurate() && g.segs[i].Start() == start {
			return i, true
		}
	}
	return 0, false
}

// Lookup translates lpa using the learned table (Algorithm 1 lines
// 17–22). ok is false when no segment indexes the LPA (never written, or
// its mapping lives only in flash-resident translation pages).
//
// A group that holds a valid memo answers from it (memo.go), and a
// group that has translated memoFillLPAs LPAs since its last commit or
// drop fills it first; otherwise Lookup walks the group's levels.
// Lookup may write the group's memo and its read count, never its
// answers, and every answer is the walk's.
func (t *Table) Lookup(lpa addr.LPA) (addr.PPA, LookupResult, bool) {
	t.settle()
	id := addr.Group(lpa)
	g := t.lookupGroup(id)
	if g == nil {
		return addr.InvalidPPA, LookupResult{}, false
	}
	if !g.memo.valid {
		if !g.memo.note() {
			return t.walk(g, lpa)
		}
		t.fill(g, addr.GroupBase(id))
	}
	return unpack(g.memo.slots[addr.Offset(lpa)], g.depth())
}

// Walk answers lpa as Lookup does, but always from the group's levels:
// it neither reads nor fills the group's answer memo. It is the
// controller's lookup as the paper times it (Table 3).
func (t *Table) Walk(lpa addr.LPA) (addr.PPA, LookupResult, bool) {
	t.settle()
	g := t.lookupGroup(addr.Group(lpa))
	if g == nil {
		return addr.InvalidPPA, LookupResult{}, false
	}
	return t.walk(g, lpa)
}

// walk answers lpa from g's levels.
//
// The hot path is allocation-free and, for accurate segments, pure
// integer arithmetic against the decoded cache: a search over the level's
// 1-byte key window, one modulo for the stride membership test
// (Algorithm 2 has_lpa), one divide for the anchored prediction. The
// levels are visited top-down, walking the group's array from its tail.
func (t *Table) walk(g *group, lpa addr.LPA) (addr.PPA, LookupResult, bool) {
	var res LookupResult
	off := addr.Offset(lpa)
	hi := len(g.segs)
	for d := len(g.ends) - 1; d >= 0; d-- {
		lo := 0
		if d > 0 {
			lo = int(g.ends[d-1])
		}
		keys := g.keys[lo:hi]
		hi = lo
		res.Levels++
		// Last segment with start offset ≤ off; the search guarantees
		// lpa ≥ SLPA, so containment needs only the End bound.
		idx := searchKeys(keys, uint16(off)+1) - 1
		if idx < 0 || lpa > g.segs[lo+idx].End() {
			continue
		}
		seg := &g.segs[lo+idx]
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
			continue
		}
		res.Approx = true
		return seg.predictApprox(off), res, true
	}
	return addr.InvalidPPA, res, false
}

// Compact rebuilds every group mutated since its last rebuild (paper §3.7
// "Segment Compaction", done a whole group at a time — rebuild.go). The
// per-group triggers on the commit path keep depth and size bounded on
// their own; this sweep is the backstop that also tightens groups still
// under their thresholds.
//
// It reshapes only groups touched since their last rebuild, and under
// demand paging every such group is already dirty (every commit marks
// its groups dirty first, and only a writeback cleans one), so the sweep
// needs to tell the pager nothing.
func (t *Table) Compact() {
	t.settle()
	t.eachGroup(func(id addr.GroupID, g *group) {
		before := g.footprint()
		t.compactGroup(id, g)
		t.bytes += g.footprint() - before
	})
}

func (g *group) segmentCount() int { return len(g.segs) }

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
// plus CRB bytes. This is the quantity Figures 15 and 19 compare. O(1)
// once the ring is settled.
func (t *Table) SizeBytes() int {
	t.settle()
	return t.bytes
}

// Stats counts the summary statistics by walking the resident groups.
// It is O(segments); the figures read it once, at the end of a run.
func (t *Table) Stats() Stats {
	t.settle()
	var s Stats
	t.eachGroup(func(_ addr.GroupID, g *group) {
		s.Groups++
		s.Segments += len(g.segs)
		for i := range g.segs {
			if g.segs[i].Accurate() {
				s.Accurate++
			}
		}
		s.CRBBytes += g.crb.sizeBytes()
		s.TotalLevels += g.depth()
		s.MaxLevels = max(s.MaxLevels, g.depth())
	})
	s.Approximate = s.Segments - s.Accurate
	s.SegmentBytes = s.Segments * SegmentBytes
	return s
}

// LevelCounts returns the number of levels of every group, for the
// Figure 12 distribution.
func (t *Table) LevelCounts() []int {
	t.settle()
	var out []int
	t.eachGroup(func(_ addr.GroupID, g *group) {
		out = append(out, g.depth())
	})
	return out
}

// CRBSizes returns every group's CRB byte size, for Figure 10.
func (t *Table) CRBSizes() []int {
	t.settle()
	var out []int
	t.eachGroup(func(_ addr.GroupID, g *group) {
		out = append(out, g.crb.sizeBytes())
	})
	return out
}

// SegmentLengths returns the number of LPA-PPA mappings each segment
// covers, for the Figure 5 distribution.
func (t *Table) SegmentLengths() []int {
	t.settle()
	var out []int
	t.eachGroup(func(_ addr.GroupID, g *group) {
		for li := 0; li < g.depth(); li++ {
			segs := g.level(li).segs
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
