package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// model mirrors what the table should answer: latest PPA per LPA.
type model map[addr.LPA]addr.PPA

func (m model) apply(pairs []addr.Mapping) {
	for _, p := range pairs {
		m[p.LPA] = p.PPA
	}
}

// verify checks every modeled LPA against the table within gamma.
func verify(t *testing.T, tb *Table, m model, gamma int) {
	t.Helper()
	for lpa, want := range m {
		ppa, _, ok := tb.Lookup(lpa)
		if !ok {
			t.Fatalf("Lookup(%d): not found, want %d", lpa, want)
		}
		d := int64(ppa) - int64(want)
		if d < -int64(gamma) || d > int64(gamma) {
			t.Fatalf("Lookup(%d) = %d, want %d (±%d)", lpa, ppa, want, gamma)
		}
	}
}

func TestTableSequentialThenLookup(t *testing.T) {
	tb := NewTable(0)
	pairs := mappings(0, 1, 1000, 512)
	tb.Update(pairs)
	for _, p := range pairs {
		got, res, ok := tb.Lookup(p.LPA)
		if !ok || got != p.PPA {
			t.Fatalf("Lookup(%d) = %d,%v want %d", p.LPA, got, ok, p.PPA)
		}
		if res.Levels != 1 {
			t.Errorf("Lookup(%d) visited %d levels, want 1", p.LPA, res.Levels)
		}
	}
	if _, _, ok := tb.Lookup(512); ok {
		t.Error("Lookup(512) should miss")
	}
	if _, _, ok := tb.Lookup(99999); ok {
		t.Error("Lookup in unwritten group should miss")
	}
}

func TestTableOverwriteTakesLatest(t *testing.T) {
	tb := NewTable(0)
	m := model{}
	b1 := mappings(0, 1, 1000, 64)
	tb.Update(b1)
	m.apply(b1)
	// Overwrite the middle with new PPAs (paper Figure 13 T2).
	b2 := mappings(16, 1, 5000, 16)
	tb.Update(b2)
	m.apply(b2)
	verify(t, tb, m, 0)

	st := tb.Stats()
	if st.MaxLevels < 2 {
		t.Errorf("expected ≥2 levels after overlapping update, got %d", st.MaxLevels)
	}
}

func TestTableFigure13Scenario(t *testing.T) {
	// Replays the timeline of paper Figure 13 with concrete PPAs. What is
	// pinned is what every step translates to and that the group stays
	// inside the shape bound — not which level a segment rests on, which
	// the rebuild is free to choose.
	tb := NewTable(4)
	m := model{}
	step := func(pairs []addr.Mapping) {
		t.Helper()
		tb.Update(pairs)
		m.apply(pairs)
		verify(t, tb, m, 4)
		if err := tb.CheckShape(); err != nil {
			t.Fatal(err)
		}
	}
	step(mappings(0, 1, 100, 64))   // T0: [0,63]
	step(mappings(200, 1, 400, 56)) // T1: [200,255]
	step(mappings(16, 1, 600, 16))  // T2: [16,31]
	irregular := func(lpas []addr.LPA, ppa addr.PPA) []addr.Mapping {
		out := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			out[i] = addr.Mapping{LPA: l, PPA: ppa + addr.PPA(i)}
		}
		return out
	}
	step(irregular([]addr.LPA{75, 78, 82}, 700)) // T3
	step(irregular([]addr.LPA{72, 73, 80}, 800)) // T4
	// T5/T6 lookups happen inside verify.
	step(mappings(32, 1, 900, 59)) // T7: [32,90]
	tb.Compact()                   // T8
	verify(t, tb, m, 4)
	if _, _, ok := tb.Lookup(95); ok {
		t.Error("Lookup(95): never written, yet mapped after compaction")
	}
	if err := checkStructure(tb); err != nil {
		t.Fatal(err)
	}
	// T7 overwrote T3 and T4 whole and the tail of T0: compaction sheds
	// them and leaves the four runs that still answer something (the head
	// of T0, T2, T7, T1), side by side.
	if st := tb.Stats(); st.Segments != 4 || st.MaxLevels != 1 {
		t.Errorf("after compaction: %d segments on %d levels, want 4 on 1", st.Segments, st.MaxLevels)
	}
}

func TestTableCRBRedirect(t *testing.T) {
	// Two overlapping approximate segments: newest owns its LPAs, older
	// keeps the rest, and lookups must route through the CRB (Figure 9).
	tb := NewTable(8)
	m := model{}
	ir := func(lpas []addr.LPA, ppa addr.PPA) []addr.Mapping {
		out := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			out[i] = addr.Mapping{LPA: l, PPA: ppa + addr.PPA(i)}
		}
		return out
	}
	b1 := ir([]addr.LPA{100, 101, 103, 104, 106}, 1000)
	tb.Update(b1)
	m.apply(b1)
	b2 := ir([]addr.LPA{102, 105, 107, 108}, 2000)
	tb.Update(b2)
	m.apply(b2)
	verify(t, tb, m, 8)

	// LPA 103 belongs to the first (now lower) segment even though the
	// second covers it by range.
	_, res, ok := tb.Lookup(103)
	if !ok {
		t.Fatal("Lookup(103) missed")
	}
	if !res.Approx {
		t.Error("Lookup(103) should be served by an approximate segment")
	}
}

func TestTableCompactReducesLevels(t *testing.T) {
	tb := NewTable(0)
	m := model{}
	// Repeatedly rewrite disjoint slices of one group to stack levels.
	for i := 0; i < 8; i++ {
		b := mappings(addr.LPA(i*32), 1, addr.PPA(1000*i), 32)
		tb.Update(b)
		m.apply(b)
	}
	// Now rewrite overlapping ranges to force overlaps across levels.
	for i := 0; i < 8; i++ {
		b := mappings(addr.LPA(i*16), 1, addr.PPA(50000+1000*i), 48)
		tb.Update(b)
		m.apply(b)
	}
	before := tb.Stats()
	tb.Compact()
	after := tb.Stats()
	verify(t, tb, m, 0)
	if after.Segments > before.Segments || after.MaxLevels > before.MaxLevels {
		t.Errorf("compaction grew the table: %d segments on %d levels → %d on %d",
			before.Segments, before.MaxLevels, after.Segments, after.MaxLevels)
	}
	// Every surviving segment answers for at least one LPA.
	if after.Segments > len(m) {
		t.Errorf("%d segments for %d mapped LPAs", after.Segments, len(m))
	}
	if err := tb.CheckShape(); err != nil {
		t.Fatal(err)
	}
	if err := checkStructure(tb); err != nil {
		t.Fatal(err)
	}
}

func TestTableSizeAccounting(t *testing.T) {
	tb := NewTable(0)
	tb.Update(mappings(0, 1, 0, 256))
	st := tb.Stats()
	if st.Segments != 1 || st.SegmentBytes != SegmentBytes {
		t.Errorf("stats = %+v, want 1 segment / 8 bytes", st)
	}
	if tb.SizeBytes() != SegmentBytes {
		t.Errorf("SizeBytes = %d, want %d", tb.SizeBytes(), SegmentBytes)
	}
	// A full random group degrades to ≤ 256 single-point segments: never
	// worse than page-level mapping's 8 B/entry (paper §3.1).
	tb2 := NewTable(0)
	rng := rand.New(rand.NewSource(7))
	pairs := make([]addr.Mapping, 256)
	for i := range pairs {
		pairs[i] = addr.Mapping{LPA: addr.LPA(i), PPA: addr.PPA(rng.Intn(1 << 30))}
	}
	tb2.Update(pairs)
	if got, limit := tb2.SizeBytes(), 256*8; got > limit {
		t.Errorf("random group footprint %d exceeds page-level %d", got, limit)
	}
}

func TestTableLevelAndCRBStats(t *testing.T) {
	tb := NewTable(4)
	ir := func(lpas []addr.LPA, ppa addr.PPA) []addr.Mapping {
		out := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			out[i] = addr.Mapping{LPA: l, PPA: ppa + addr.PPA(i)}
		}
		return out
	}
	tb.Update(ir([]addr.LPA{1, 2, 5, 9}, 100))
	if n := len(tb.CRBSizes()); n != 1 {
		t.Fatalf("CRBSizes groups = %d, want 1", n)
	}
	if sz := tb.CRBSizes()[0]; sz != 5 { // 4 LPAs + 1 separator
		t.Errorf("CRB size = %d, want 5", sz)
	}
	if lc := tb.LevelCounts(); len(lc) != 1 || lc[0] != 1 {
		t.Errorf("LevelCounts = %v", lc)
	}
	if sl := tb.SegmentLengths(); len(sl) != 1 || sl[0] != 4 {
		t.Errorf("SegmentLengths = %v", sl)
	}
}

// TestTableRandomizedModel is the package's main correctness property:
// arbitrary interleavings of batch updates (sequential, strided,
// irregular, random), lookups and compactions must always agree with a
// reference map within gamma.
func TestTableRandomizedModel(t *testing.T) {
	for _, gamma := range []int{0, 1, 4, 16} {
		gamma := gamma
		t.Run(gammaName(gamma), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + gamma)))
			tb := NewTable(gamma)
			m := model{}
			ppa := addr.PPA(0)
			const space = 4096 // 16 groups
			for round := 0; round < 400; round++ {
				var pairs []addr.Mapping
				start := addr.LPA(rng.Intn(space))
				switch rng.Intn(4) {
				case 0: // sequential run
					n := 1 + rng.Intn(300)
					for i := 0; i < n; i++ {
						pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa})
						ppa++
					}
				case 1: // strided run
					st := 2 + rng.Intn(5)
					n := 1 + rng.Intn(80)
					for i := 0; i < n; i++ {
						pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i*st), PPA: ppa})
						ppa++
					}
				case 2: // irregular ascending
					n := 1 + rng.Intn(60)
					l := start
					for i := 0; i < n; i++ {
						l += addr.LPA(1 + rng.Intn(4))
						pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
						ppa++
					}
				case 3: // scattered random LPAs
					n := 1 + rng.Intn(40)
					seen := map[addr.LPA]bool{}
					for i := 0; i < n; i++ {
						l := addr.LPA(rng.Intn(space))
						if !seen[l] {
							seen[l] = true
						}
					}
					for l := range seen {
						pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
						ppa++
					}
					sortMappings(pairs)
				}
				tb.Update(pairs)
				m.apply(pairs)
				if rng.Intn(25) == 0 {
					tb.Compact()
				}
				if rng.Intn(10) == 0 {
					verify(t, tb, m, gamma)
				}
			}
			verify(t, tb, m, gamma)
			tb.Compact()
			verify(t, tb, m, gamma)
		})
	}
}

func gammaName(g int) string {
	return map[int]string{0: "gamma0", 1: "gamma1", 4: "gamma4", 16: "gamma16"}[g]
}

func sortMappings(pairs []addr.Mapping) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].LPA < pairs[j-1].LPA; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

func TestTableLevelsAreSortedAndDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := NewTable(4)
	ppa := addr.PPA(0)
	for round := 0; round < 200; round++ {
		start := addr.LPA(rng.Intn(2048))
		n := 1 + rng.Intn(100)
		var pairs []addr.Mapping
		l := start
		for i := 0; i < n; i++ {
			l += addr.LPA(1 + rng.Intn(3))
			pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
			ppa++
		}
		tb.Update(pairs)
	}
	tb.eachGroup(func(gid addr.GroupID, g *group) {
		for li := 0; li < g.depth(); li++ {
			lvl := g.level(li)
			for i := 0; i < lvl.len(); i++ {
				if lvl.keys[i] != lvl.segs[i].Start() {
					t.Fatalf("group %d level %d: key %d out of step with segment %v",
						gid, li, lvl.keys[i], lvl.segs[i])
				}
				if i > 0 && lvl.segs[i-1].End() >= lvl.segs[i].SLPA {
					t.Fatalf("group %d level %d: segments %v and %v overlap or misordered",
						gid, li, lvl.segs[i-1], lvl.segs[i])
				}
			}
		}
	})
}

// traceBatches generates a deterministic update trace mixing sequential,
// strided and irregular batches across many groups.
func traceBatches(seed int64, rounds, space int) [][]addr.Mapping {
	rng := rand.New(rand.NewSource(seed))
	ppa := addr.PPA(0)
	out := make([][]addr.Mapping, 0, rounds)
	for r := 0; r < rounds; r++ {
		start := addr.LPA(rng.Intn(space))
		var pairs []addr.Mapping
		switch r % 3 {
		case 0:
			n := 1 + rng.Intn(200)
			for i := 0; i < n; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa})
				ppa++
			}
		case 1:
			st := 2 + rng.Intn(4)
			for i := 0; i < 40; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i*st), PPA: ppa})
				ppa++
			}
		default:
			l := start
			for i := 0; i < 30; i++ {
				l += addr.LPA(1 + rng.Intn(4))
				pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
				ppa++
			}
		}
		out = append(out, pairs)
	}
	return out
}

// TestIncrementalStatsMatchWalk cross-checks the incrementally maintained
// counters against a from-scratch recomputation after heavy churn.
func TestIncrementalStatsMatchWalk(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		tb := NewTable(gamma)
		for _, b := range traceBatches(int64(31+gamma), 200, 12*addr.GroupSize) {
			tb.Update(b)
		}
		tb.Compact()
		for _, b := range traceBatches(int64(32+gamma), 50, 12*addr.GroupSize) {
			tb.Update(b)
		}
		got := tb.Stats()
		tb.recomputeStats()
		want := tb.Stats()
		if got != want {
			t.Errorf("gamma %d: incremental stats %+v, recomputed %+v", gamma, got, want)
		}
	}
}

// TestLookupZeroAllocs pins the acceptance criterion: the translation hot
// path performs zero allocations, both walking a group's levels (every
// call drops the group's answer memo first) and answering from warm
// memos.
func TestLookupZeroAllocs(t *testing.T) {
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
			lpa := addr.LPA(0)
			if avg := testing.AllocsPerRun(2000, func() {
				if g := tb.lookupGroup(addr.Group(lpa)); g != nil && !warm {
					g.memo.changed()
				}
				tb.Lookup(lpa)
				lpa = (lpa + 37) % (16 * 512)
			}); avg != 0 {
				t.Errorf("gamma %d, warm memos %v: Lookup allocates %.2f objects per call, want 0", gamma, warm, avg)
			}
		}
	}
}

// TestUpdateSteadyStateAllocs pins the amortized-O(1) property of the
// mutation path: re-learning the same working set must settle to a small
// constant number of allocations per 256-mapping batch (CRB entry copies
// and occasional segment-array growth), nothing proportional to batch
// size or victim count like the old per-victim bitmap and LPA slices,
// and the full preset's aged table's relocation batches must allocate
// nothing.
func TestUpdateSteadyStateAllocs(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		rng := rand.New(rand.NewSource(3))
		tb := NewTable(gamma)
		batches := make([][]addr.Mapping, 64)
		ppa := addr.PPA(0)
		for i := range batches {
			batches[i] = mixedBatch(rng, addr.LPA(rng.Intn(4096)), ppa)
			ppa += 256
		}
		// Warm: grow every scratch buffer and level to steady state.
		for r := 0; r < 4; r++ {
			for _, b := range batches {
				tb.Update(b)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(2*len(batches), func() {
			tb.Update(batches[i%len(batches)])
			i++
		})
		// The old mutation path allocated hundreds of objects per batch
		// (one [256]bool + slices per victim). With one segment array per
		// group, γ=0 measures 0 and γ=4 11 (CRB entry buffers); allow a
		// little headroom over that.
		const maxAllocs = 16
		if avg > maxAllocs {
			t.Errorf("gamma %d: Update allocates %.1f objects per batch, want ≤ %d", gamma, avg, maxAllocs)
		}
	}

	// The bench's full configuration: a γ = 0 table (presetGamma), aged,
	// fed relocation-shaped batches (a few LPAs of every group). Their
	// runs go through the merge scratch and the rebuilds they trigger;
	// once warm, none of it allocates.
	tb := NewTable(presetGamma(4, true))
	a := newAger(3, 64)
	a.prefill(tb)
	a.age(tb, 10)
	for r := 0; r < 50; r++ {
		a.relocate(tb)
	}
	if avg := testing.AllocsPerRun(100, func() { a.relocate(tb) }); avg != 0 {
		t.Errorf("full preset: a relocation pass allocates %.1f objects, want 0", avg)
	}
}

// recomputeStats rebuilds every incremental counter by walking the table:
// the from-scratch oracle the incremental bookkeeping is checked against.
func (t *Table) recomputeStats() {
	t.nGroups, t.nSegments, t.nAccurate, t.crbBytes, t.totalLevels = 0, 0, 0, 0, 0
	t.levelFreq = append(t.levelFreq[:0], 0)
	t.eachGroup(func(_ addr.GroupID, g *group) {
		t.nGroups++
		n := g.depth()
		t.totalLevels += n
		for len(t.levelFreq) <= n {
			t.levelFreq = append(t.levelFreq, 0)
		}
		t.levelFreq[n]++
		g.crb.recompute()
		t.crbBytes += g.crb.sizeBytes()
		for li := 0; li < n; li++ {
			for _, s := range g.level(li).segs {
				t.noteAdd(s)
			}
		}
	})
}

// TestTableMemoryTracksLiveSegments bounds the host memory of the
// groups' segment arrays by the live segment count: an aged table's
// arrays, grown by doubling to each group's peak, may not retain more
// than 4 slots per live segment plus a small per-group allowance. A
// layout that keeps every level's largest array past the level's life
// retains several times more.
func TestTableMemoryTracksLiveSegments(t *testing.T) {
	const groups = 400
	tb := NewTable(presetGamma(4, true)) // the full preset's table
	a := newAger(11, groups)
	a.prefill(tb)
	for round := 0; round < 4; round++ {
		a.age(tb, 10)
		segs, slots := tb.Stats().Segments, retainedSlots(tb)
		t.Logf("round %d: %d slots retained for %d live segments (%.2f×)", round, slots, segs, float64(slots)/float64(segs))
		if bound := 4*segs + 64*groups; slots > bound {
			t.Fatalf("round %d: %d segment slots retained for %d live segments, bound %d", round, slots, segs, bound)
		}
	}
}

// TestBreathingGroupZeroAllocs: a group that deepens, is rebuilt and
// deepens again keeps reusing its one segment array. Once the array has
// grown to the group's peak, the cycle allocates nothing.
func TestBreathingGroupZeroAllocs(t *testing.T) {
	tb := NewTable(0)
	ppa := addr.PPA(0)
	pairs := make([]addr.Mapping, 8)
	// Two interleaved stride-2 runs over one span, written in turn:
	// neither takes an LPA of the other, so each write pushes the one
	// before it a level down, until the depth trigger rebuilds the group
	// back to the two that answer.
	write := func(i int) {
		for k := range pairs {
			pairs[k] = addr.Mapping{LPA: addr.LPA(100 + i%2 + 2*k), PPA: ppa}
			ppa++
		}
		tb.Update(pairs)
	}
	rebuilds, prev := 0, 0
	for i := 0; i < 64; i++ {
		write(i)
		d := tb.lookupGroup(0).depth()
		if d < prev {
			rebuilds++
		}
		prev = d
	}
	if rebuilds < 2 || prev < 2 {
		t.Fatalf("group was rebuilt %d times and ends %d deep: it must breathe", rebuilds, prev)
	}
	i := 0
	if avg := testing.AllocsPerRun(64, func() {
		write(i)
		i++
	}); avg != 0 {
		t.Errorf("a breathing group allocates %.2f objects per write, want 0", avg)
	}
}

// TestAgedCommitPinned pins the table an aged write path leaves behind:
// overwrite flushes, relocation-shaped batches and one-point read
// repairs, at γ ∈ {0, 4} for the paper preset (bitmap=false) and the
// full one (bitmap=true), which learns at γ = 0 whatever γ it is given
// (leaftl.WithExactBitmap); the ager's seed still follows γ. After every
// round the digest folds in each group's record (levels, segments and
// CRB, in group order), Stats and SizeBytes. The wanted digests
// were recorded from the insert-by-segment commit path, so a rewrite of
// the commit must leave every intermediate table bit-identical; the
// gamma4/bitmap=true one since the full preset learns at γ = 0.
func TestAgedCommitPinned(t *testing.T) {
	want := map[string]string{
		"gamma0/bitmap=false": "af29e11a67113057 {Groups:64 Segments:16115 Accurate:16115 Approximate:0 SegmentBytes:128920 CRBBytes:0 MaxLevels:10 TotalLevels:366} 128920",
		"gamma0/bitmap=true":  "af29e11a67113057 {Groups:64 Segments:16115 Accurate:16115 Approximate:0 SegmentBytes:128920 CRBBytes:0 MaxLevels:10 TotalLevels:366} 128920",
		"gamma4/bitmap=false": "06133d6e9fd5706c {Groups:64 Segments:15327 Accurate:4388 Approximate:10939 SegmentBytes:122616 CRBBytes:22887 MaxLevels:10 TotalLevels:419} 145503",
		"gamma4/bitmap=true":  "2519ac0d5bd0b1a9 {Groups:64 Segments:15930 Accurate:15930 Approximate:0 SegmentBytes:127440 CRBBytes:0 MaxLevels:10 TotalLevels:422} 127440",
	}
	for _, gamma := range []int{0, 4} {
		for _, bitmap := range []bool{false, true} {
			name := fmt.Sprintf("gamma%d/bitmap=%v", gamma, bitmap)
			t.Run(name, func(t *testing.T) {
				tb := NewTable(presetGamma(gamma, bitmap))
				h := fnv.New64a()
				fold := func() {
					for _, gid := range tb.ResidentGroups() {
						img, err := tb.MarshalGroup(gid)
						if err != nil {
							t.Fatal(err)
						}
						h.Write(img)
					}
					fmt.Fprintf(h, "%+v %d", tb.Stats(), tb.SizeBytes())
				}
				a := newAger(int64(7+gamma), 64)
				a.prefill(tb)
				fold()
				for round := 0; round < 20; round++ {
					for i := 0; i < 6; i++ {
						a.overwrite(tb)
						a.repair(tb, 64)
					}
					a.relocate(tb)
					a.repair(tb, 256)
					fold()
				}
				if err := tb.CheckShape(); err != nil {
					t.Fatal(err)
				}
				var sum [8]byte
				binary.BigEndian.PutUint64(sum[:], h.Sum64())
				got := fmt.Sprintf("%x %+v %d", sum, tb.Stats(), tb.SizeBytes())
				if got != want[name] {
					t.Errorf("aged table moved:\n got %s\nwant %s", got, want[name])
				}
			})
		}
	}
}
