package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"leaftl/internal/addr"
)

// churn drives a table with a seeded stream of host-style batches and
// GC-style relocation batches, keeping a map
// oracle of the true PPA of every written LPA. PPAs come from one
// ascending log, like flash pages.
type churn struct {
	t       *testing.T
	rng     *rand.Rand
	gamma   int
	space   int
	tab     *Table
	truth   map[addr.LPA]addr.PPA
	log     addr.PPA
	written int // pages committed through host batches
}

// newChurn returns a churn over a table of the paper preset at gamma, or
// of the full preset (bitmap), which learns at γ = 0 whatever gamma it
// is given (leaftl.WithExactBitmap).
func newChurn(t *testing.T, seed int64, gamma, space int, bitmap bool) *churn {
	gamma = presetGamma(gamma, bitmap)
	return &churn{
		t: t, rng: rand.New(rand.NewSource(seed)), gamma: gamma, space: space,
		tab: NewTable(gamma), truth: make(map[addr.LPA]addr.PPA),
	}
}

// presetGamma is the γ a table learns at under the preset a test names:
// the full preset (bitmap, leaftl.WithExactBitmap) learns at γ = 0
// whatever γ it is given, the paper preset at gamma.
func presetGamma(gamma int, bitmap bool) int {
	if bitmap {
		return 0
	}
	return gamma
}

// place lays lpas (ascending, unique) on the next pages of the log.
func (c *churn) place(lpas []addr.LPA) []addr.Mapping {
	pairs := make([]addr.Mapping, len(lpas))
	for i, l := range lpas {
		pairs[i] = addr.Mapping{LPA: l, PPA: c.log}
		c.truth[l] = c.log
		c.log++
	}
	return pairs
}

// hostBatch is one sorted buffer flush: a few random overwrites, strided
// runs and short sequential runs, merged and de-duplicated.
func (c *churn) hostBatch() {
	set := map[addr.LPA]bool{}
	for n := 1 + c.rng.Intn(4); n > 0; n-- {
		start := c.rng.Intn(c.space)
		switch c.rng.Intn(3) {
		case 0: // scattered single pages
			for i := 0; i < 24; i++ {
				set[addr.LPA(c.rng.Intn(c.space))] = true
			}
		case 1: // strided run
			st := 2 + c.rng.Intn(6)
			for i := 0; i < 32 && start+i*st < c.space; i++ {
				set[addr.LPA(start+i*st)] = true
			}
		default: // sequential run
			for i := 0; i < 1+c.rng.Intn(96) && start+i < c.space; i++ {
				set[addr.LPA(start+i)] = true
			}
		}
	}
	pairs := c.place(sortedLPAs(set))
	c.written += len(pairs)
	c.tab.Update(pairs)
}

// gcBatch relocates the live pages of one 256-page stretch of the log in
// ascending-LPA order, the way block reclaim does.
func (c *churn) gcBatch() {
	if c.log < 512 {
		return
	}
	lo := addr.PPA(c.rng.Intn(int(c.log)-256)) &^ 255
	set := map[addr.LPA]bool{}
	for l, p := range c.truth {
		if p >= lo && p < lo+256 {
			set[l] = true
		}
	}
	if len(set) == 0 {
		return
	}
	pairs := c.place(sortedLPAs(set))
	c.tab.Update(pairs)
}

// readBack checks a few random LPAs' approximate answers against the
// oracle and repairs each miss with an exact point.
func (c *churn) readBack() {
	for i := 0; i < 16; i++ {
		l := addr.LPA(c.rng.Intn(c.space))
		want, ok := c.truth[l]
		if !ok {
			continue
		}
		got, res, _ := c.tab.Lookup(l)
		if !res.Approx {
			continue
		}
		if got != want {
			fix := Learned{Seg: Segment{SLPA: l, I: float32(want)}, LPAs: []addr.LPA{l}}
			c.tab.insert(fix)
		}
	}
}

func sortedLPAs(set map[addr.LPA]bool) []addr.LPA {
	out := make([]addr.LPA, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// check holds the table to the oracle: accurate answers are exact,
// approximate ones within γ, unwritten LPAs unmapped, every structural
// invariant and incremental counter intact, and the shape within bounds.
func (c *churn) check(when string) {
	c.t.Helper()
	for lpa := 0; lpa < c.space; lpa++ {
		l := addr.LPA(lpa)
		got, res, ok := c.tab.Lookup(l)
		want, written := c.truth[l]
		if ok != written {
			c.t.Fatalf("%s: Lookup(%d) mapped=%v, oracle says %v", when, l, ok, written)
		}
		if !ok {
			continue
		}
		slack := 0
		if res.Approx {
			slack = c.gamma
		}
		if d := int64(got) - int64(want); d < -int64(slack) || d > int64(slack) {
			c.t.Fatalf("%s: Lookup(%d) = %d (%+v), want %d ±%d", when, l, got, res, want, slack)
		}
		if res.Levels > maxGroupLevels {
			c.t.Fatalf("%s: Lookup(%d) visited %d levels, bound %d", when, l, res.Levels, maxGroupLevels)
		}
	}
	oracle := func(l addr.LPA) (addr.PPA, bool) { p, ok := c.truth[l]; return p, ok }
	if err := c.tab.AuditExact(oracle); err != nil {
		c.t.Fatalf("%s: %v", when, err)
	}
	if err := c.tab.CheckShape(); err != nil {
		c.t.Fatalf("%s: %v", when, err)
	}
	if err := checkStructure(c.tab); err != nil {
		c.t.Fatalf("%s: %v", when, err)
	}
}

// checkStructure audits what Lookup relies on: level windows that tile
// the group's array, sorted, disjoint levels with keys in step, a CRB
// whose entries match the approximate segments one to one, an owner index
// and byte counts that a from-scratch recomputation reproduces.
func checkStructure(tb *Table) error {
	var err error
	tb.eachGroup(func(id addr.GroupID, g *group) {
		if err != nil {
			return
		}
		if err = checkWindows(g); err != nil {
			err = fmt.Errorf("group %d: %w", id, err)
			return
		}
		approx := 0
		for li := 0; li < g.depth(); li++ {
			lvl := g.level(li)
			if len(lvl.keys) != len(lvl.segs) {
				err = fmt.Errorf("group %d level %d: %d keys, %d segments", id, li, len(lvl.keys), len(lvl.segs))
				return
			}
			for i := range lvl.segs {
				s := lvl.segs[i]
				if lvl.keys[i] != s.Start() || (i > 0 && lvl.segs[i-1].End() >= s.SLPA) {
					err = fmt.Errorf("group %d level %d: segment %d (%v) out of order or key out of step", id, li, i, s)
					return
				}
				fresh := s
				fresh.prime()
				if fresh != s {
					err = fmt.Errorf("group %d level %d: segment %v carries a stale decoded cache", id, li, s)
					return
				}
				if s.Accurate() {
					continue
				}
				approx++
				e := g.crb.entryFor(s.Start())
				if e == nil || e.last() != addr.Offset(s.End()) {
					err = fmt.Errorf("group %d: approximate segment %v has no CRB entry spanning it", id, s)
					return
				}
			}
		}
		if approx != len(g.crb.entries) {
			err = fmt.Errorf("group %d: %d approximate segments, %d CRB entries", id, approx, len(g.crb.entries))
			return
		}
		owner, bytes := append([]uint16(nil), g.crb.owner...), g.crb.bytes
		g.crb.recompute()
		if bytes != g.crb.bytes {
			err = fmt.Errorf("group %d: CRB counts %d B, recomputed %d B", id, bytes, g.crb.bytes)
			return
		}
		for o := range owner {
			if _, owned := g.crb.lookup(uint8(o)); owned != (owner[o] != ownerNone) || (owned && owner[o] != g.crb.owner[o]) {
				err = fmt.Errorf("group %d: CRB owner[%d] = %d does not survive a recomputation", id, o, owner[o])
				return
			}
		}
	})
	if err != nil {
		return err
	}
	incr := tb.SizeBytes()
	tb.recomputeBytes()
	if again := tb.SizeBytes(); incr != again {
		return fmt.Errorf("SizeBytes %d, recomputed %d", incr, again)
	}
	return nil
}

// TestRebuildProperty is the rebuild's correctness property: whatever mix
// of overwrites, strided runs, relocation batches and read repairs a
// table has seen, after every batch it answers like the oracle and every
// group is inside the shape bound.
func TestRebuildProperty(t *testing.T) {
	for _, tc := range []struct {
		gamma  int
		bitmap bool
	}{{0, false}, {4, false}, {4, true}, {16, true}} {
		t.Run(fmt.Sprintf("gamma%d/bitmap=%v", tc.gamma, tc.bitmap), func(t *testing.T) {
			c := newChurn(t, int64(100+tc.gamma), tc.gamma, 8*addr.GroupSize, tc.bitmap)
			for round := 0; round < 600; round++ {
				switch r := c.rng.Intn(10); {
				case r < 6:
					c.hostBatch()
				case r < 9:
					c.gcBatch()
				default:
					c.readBack()
				}
				if round%50 == 49 {
					c.tab.Compact()
				}
				c.check(fmt.Sprintf("round %d", round))
			}
		})
	}
}

// TestTableSizeIndependentOfRunLength: the table's footprint is a
// function of what is mapped, not of how much was written. After four
// logical overwrites of the space and after sixteen, the table is the
// same size to within a tenth.
func TestTableSizeIndependentOfRunLength(t *testing.T) {
	for _, bitmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("bitmap=%v", bitmap), func(t *testing.T) {
			const space = 16 * addr.GroupSize
			c := newChurn(t, 7, 4, space, bitmap)
			sizeAfter := func(overwrites int) int {
				// Average over the last stretch: the footprint breathes
				// between rebuilds, the mean is what has to hold still.
				sum, n := 0, 0
				for c.written < overwrites*space {
					c.hostBatch()
					if c.rng.Intn(3) == 0 {
						c.gcBatch()
					}
					if c.written > (overwrites-1)*space {
						sum += c.tab.SizeBytes()
						n++
					}
				}
				c.check(fmt.Sprintf("after %d overwrites", overwrites))
				return sum / n
			}
			at4, at16 := sizeAfter(4), sizeAfter(16)
			if d := at16 - at4; d > at4/10 || d < -at4/10 {
				t.Fatalf("table is %d B after 4 overwrites and %d B after 16", at4, at16)
			}
			if limit := 8 * len(c.truth); at16 > limit {
				t.Fatalf("table is %d B for %d mapped LPAs, a page map is %d B", at16, len(c.truth), limit)
			}
		})
	}
}

// TestCompactReportsOnlyChanges: a second compaction sweep with nothing
// written since the first leaves every group's record byte-identical.
func TestCompactReportsOnlyChanges(t *testing.T) {
	c := newChurn(t, 3, 4, 8*addr.GroupSize, true)
	for i := 0; i < 200; i++ {
		c.hostBatch()
	}
	c.tab.Compact()
	img := groupImages(t, c.tab)
	c.tab.Compact()
	if again := groupImages(t, c.tab); !maps.EqualFunc(img, again, bytes.Equal) {
		t.Fatal("a second Compact changed a record")
	}
}

// TestRebuildKeepsUnverifiedApproximate pins the rule the rebuild may
// not bend: a slot answered by an approximate segment, whose prediction
// nothing verified, answers with the same prediction afterwards and is
// still reported approximate, never promoted to accurate.
func TestRebuildKeepsUnverifiedApproximate(t *testing.T) {
	tb := NewTable(4)
	// Wide, interleaved ranges stack one level each, past the depth
	// bound.
	lpasOf := func(i int) []addr.LPA { return []addr.LPA{addr.LPA(i), addr.LPA(100 + 2*i), addr.LPA(200 + i)} }
	type answer struct {
		ppa addr.PPA
		res LookupResult
	}
	before := map[addr.LPA]answer{}
	for i := 0; i < maxGroupLevels+4; i++ {
		pairs := make([]addr.Mapping, 3)
		for k, l := range lpasOf(i) {
			pairs[k] = addr.Mapping{LPA: l, PPA: addr.PPA(1000*i + 3*k)} // off a slope-≤1 line, within γ
		}
		ls := Learn(pairs, 4)
		if len(ls) != 1 || ls[0].Seg.Accurate() {
			t.Fatalf("batch %d learned %d segments (accurate=%v), want one approximate", i, len(ls), ls[0].Seg.Accurate())
		}
		// Snapshot what the table answers just before the insert that may
		// trigger the rebuild: those answers must survive it.
		for l := range before {
			p, r, _ := tb.Lookup(l)
			before[l] = answer{p, r}
		}
		tb.insert(ls[0])
		for _, l := range ls[0].LPAs {
			p, r, _ := tb.Lookup(l)
			before[l] = answer{p, r}
		}
		for l, want := range before {
			p, r, ok := tb.Lookup(l)
			if !ok || p != want.ppa || r.Approx != want.res.Approx {
				t.Fatalf("after insert %d: Lookup(%d) = %d/%+v, was %d/%+v", i, l, p, r, want.ppa, want.res)
			}
			if !r.Approx {
				t.Fatalf("after insert %d: approximate LPA %d answered %+v", i, l, r)
			}
		}
	}
	if st := tb.Stats(); st.MaxLevels > maxGroupLevels {
		t.Fatalf("%d levels, bound %d", st.MaxLevels, maxGroupLevels)
	}
	if err := checkStructure(tb); err != nil {
		t.Fatal(err)
	}
}

// TestAuditExactCatchesWrongAnswer: AuditExact holds every accurate
// answer to the live PPA, for both presets' tables — paper's γ = 4 one
// and full's, which learns at γ = 0. Shifting the accurate segments of
// the group that answers a live LPA one page off must fail the audit.
func TestAuditExactCatchesWrongAnswer(t *testing.T) {
	for _, bitmap := range []bool{false, true} {
		c := newChurn(t, 5, 4, 4*addr.GroupSize, bitmap)
		oracle := func(l addr.LPA) (addr.PPA, bool) { p, ok := c.truth[l]; return p, ok }
		for i := 0; i < 50; i++ {
			c.hostBatch()
		}
		if err := c.tab.AuditExact(oracle); err != nil {
			t.Fatalf("bitmap=%v: audit of the intact table: %v", bitmap, err)
		}
		lpas := make([]addr.LPA, 0, len(c.truth))
		for l := range c.truth {
			lpas = append(lpas, l)
		}
		slices.Sort(lpas)
		k := slices.IndexFunc(lpas, func(l addr.LPA) bool {
			_, res, ok := c.tab.Walk(l)
			return ok && !res.Approx
		})
		if k < 0 {
			t.Fatalf("bitmap=%v: no LPA answered accurately", bitmap)
		}
		g := c.tab.lookupGroup(addr.Group(lpas[k]))
		for i := range g.segs {
			if g.segs[i].Accurate() {
				g.segs[i].p0++
			}
		}
		if err := c.tab.AuditExact(oracle); err == nil || !strings.Contains(err.Error(), "live PPA") {
			t.Errorf("bitmap=%v: AuditExact = %v on an accurate answer one page off its live PPA", bitmap, err)
		}
	}
}

// checkWindows audits a group's level windows: ascending bounds, the
// top level ending at the array's length, keys in step with segments.
func checkWindows(g *group) error {
	if len(g.keys) != len(g.segs) {
		return fmt.Errorf("%d keys, %d segments", len(g.keys), len(g.segs))
	}
	prev := int32(0)
	for d, end := range g.ends {
		if end < prev {
			return fmt.Errorf("level window %d ends at %d, before %d", d, end, prev)
		}
		prev = end
	}
	if int(prev) != len(g.segs) {
		return fmt.Errorf("levels end at %d, array holds %d segments", prev, len(g.segs))
	}
	return nil
}
