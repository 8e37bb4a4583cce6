package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"leaftl/internal/addr"
)

// mixedBatch builds one 256-mapping batch mixing sequential, strided and
// irregular runs — the shape a sorted buffer flush produces.
func mixedBatch(rng *rand.Rand, base addr.LPA, ppa addr.PPA) []addr.Mapping {
	pairs := make([]addr.Mapping, 0, 256)
	lpa := base
	for len(pairs) < 256 {
		lpa += addr.LPA(1 + rng.Intn(3))
		pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: ppa})
		ppa++
	}
	return pairs
}

// BenchmarkLearn256 measures learning one 256-mapping batch — the
// paper's Table 3 "Learning (256 LPAs)" row (9.8–10.8µs on an ARM A72).
func BenchmarkLearn256(b *testing.B) {
	for _, gamma := range []int{0, 1, 4} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			batch := mixedBatch(rng, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Learn(batch, gamma)
			}
		})
	}
}

// BenchmarkLookup measures one LPA translation by a walk of its group's
// levels — Table 3's "Lookup (per LPA)" row (40.2–67.5ns on an ARM A72).
// A read-hot group answers Lookup from its memo instead
// (BenchmarkLookupAged).
func BenchmarkLookup(b *testing.B) {
	for _, gamma := range []int{0, 1, 4} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			tb := NewTable(gamma)
			ppa := addr.PPA(0)
			for g := 0; g < 64; g++ {
				batch := mixedBatch(rng, addr.LPA(g*512), ppa)
				tb.Update(batch)
				ppa += 256
			}
			lpas := make([]addr.LPA, 4096)
			for i := range lpas {
				lpas[i] = addr.LPA(rng.Intn(64 * 512))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Walk(lpas[i%len(lpas)])
			}
		})
	}
}

// BenchmarkUpdate measures inserting a learned batch into a table with
// existing overlapping levels (the steady-state write path).
func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tb := NewTable(0)
	ppa := addr.PPA(0)
	batches := make([][]addr.Mapping, 256)
	for i := range batches {
		batches[i] = mixedBatch(rng, addr.LPA(rng.Intn(8192)), ppa)
		ppa += 256
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Update(batches[i%len(batches)])
	}
}

// BenchmarkCompact measures full-table compaction (paper §3.7 reports
// 4.1ms per 1M-write interval on their table sizes).
func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := NewTable(0)
		ppa := addr.PPA(0)
		for j := 0; j < 128; j++ {
			tb.Update(mixedBatch(rng, addr.LPA(rng.Intn(4096)), ppa))
			ppa += 256
		}
		b.StartTimer()
		tb.Compact()
	}
}

// BenchmarkEncode measures segment serialization.
func BenchmarkEncode(b *testing.B) {
	ls := Learn(mappings(0, 1, 1000, 256), 0)
	seg := ls[0].Seg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := seg.Encode()
		_ = DecodeSegment(raw, seg.Group())
	}
}

// ager drives a table through the write-path shape of an aged device: a
// sequential prefill, random overwrites flushed 256 pages at a time, and
// relocation-shaped batches — a few random LPAs per group, LPA-sorted, on
// consecutive PPAs, split into 256-pair blocks as GC commits them.
type ager struct {
	rng    *rand.Rand
	groups int
	ppa    addr.PPA
	pairs  []addr.Mapping
	seen   []bool
	truth  []addr.PPA // the PPA each LPA was last mapped to
	check  func()     // when set, runs after every committed block
	submit bool       // queue blocks with Submit instead of Update
	work   int        // rounds of busyWork after every committed block
}

func newAger(seed int64, groups int) *ager {
	n := groups * addr.GroupSize
	return &ager{rng: rand.New(rand.NewSource(seed)), groups: groups, seen: make([]bool, n), truth: make([]addr.PPA, n)}
}

// commit hands the collected LPA-sorted pairs to tb in 256-pair blocks.
func (a *ager) commit(tb *Table) {
	for lo := 0; lo < len(a.pairs); lo += 256 {
		if a.submit {
			tb.Submit(a.pairs[lo:min(lo+256, len(a.pairs))])
		} else {
			tb.Update(a.pairs[lo:min(lo+256, len(a.pairs))])
		}
		busyWork(a.work)
		if a.check != nil {
			a.check()
		}
	}
}

// add maps each LPA marked in seen to the next PPA, in LPA order, and
// commits the run.
func (a *ager) add(tb *Table) {
	a.pairs = a.pairs[:0]
	for l, ok := range a.seen {
		if ok {
			a.pairs = append(a.pairs, addr.Mapping{LPA: addr.LPA(l), PPA: a.ppa})
			a.truth[l] = a.ppa
			a.ppa++
			a.seen[l] = false
		}
	}
	a.commit(tb)
}

func (a *ager) prefill(tb *Table) {
	for l := range a.seen {
		a.seen[l] = true
	}
	a.add(tb)
}

// overwrite flushes one buffer of 256 distinct random LPAs.
func (a *ager) overwrite(tb *Table) {
	for n := 0; n < 256; {
		if l := a.rng.Intn(len(a.seen)); !a.seen[l] {
			a.seen[l] = true
			n++
		}
	}
	a.add(tb)
}

// relocate moves one to four random LPAs of every group.
func (a *ager) relocate(tb *Table) {
	for g := 0; g < a.groups; g++ {
		for k := 1 + a.rng.Intn(4); k > 0; k-- {
			a.seen[g*addr.GroupSize+a.rng.Intn(addr.GroupSize)] = true
		}
	}
	a.add(tb)
}

// repair reads n random LPAs: an approximate answer is checked against
// the truth, and a miss is pinned with a one-point insert.
func (a *ager) repair(tb *Table, n int) {
	for ; n > 0; n-- {
		l := addr.LPA(a.rng.Intn(len(a.truth)))
		got, res, ok := tb.Lookup(l)
		if !ok || !res.Approx {
			continue
		}
		if want := a.truth[l]; got != want {
			tb.insert(Learned{Seg: Segment{SLPA: l, I: float32(want)}, LPAs: []addr.LPA{l}})
		}
	}
}

// age runs rounds of overwrites, each followed by a relocation pass.
func (a *ager) age(tb *Table, rounds int) {
	for r := 0; r < rounds; r++ {
		for i := 0; i < 16; i++ {
			a.overwrite(tb)
		}
		a.relocate(tb)
	}
}

// busySink keeps busyWork's result live.
var busySink uint64

// busyWork stands in for the device's own work between two commits: n
// rounds of a dependent multiply-add.
func busyWork(n int) {
	x := busySink
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	busySink = x
}

// retainedSlots counts the segment slots every group's array holds,
// in use or not.
func retainedSlots(tb *Table) int {
	n := 0
	tb.eachGroup(func(_ addr.GroupID, g *group) { n += cap(g.segs) })
	return n
}

// agedTable returns the aged table of 400 groups the aged benchmarks run
// on, learned at γ = 0 as the full preset (leaftl.WithExactBitmap)
// learns or, for the paper preset, at γ = 4, and its ager.
func agedTable(full bool) (*Table, *ager) {
	tb := NewTable(presetGamma(4, full))
	a := newAger(5, 400)
	a.prefill(tb)
	a.age(tb, 20)
	return tb, a
}

// BenchmarkAgedCommit measures the write path of the aged table of 400
// groups, the full preset's γ = 0 one and the paper preset's γ = 4 one:
// one round of 16 overwrite flushes plus a relocation pass per op. It
// reports ns per committed pair and the host bytes the groups' segment
// arrays retain per live segment. "plain" commits into groups without a
// memo; "memo" fills every group's answer memo before each round,
// outside the timer, so its ns/pair adds the cost of patching the memos
// the round's commits keep (memo.go), approximate victims included on
// the paper preset's table. The "overlap" cases put a fixed amount of
// other work (busyWork) after every committed block, as the device does
// its flash work between commits: "update" waits for each block, and
// "submit" queues it for the pool's helpers to commit during that work,
// so with two or more CPUs its ns/pair shows the overlap.
func BenchmarkAgedCommit(b *testing.B) {
	const overlapWork = 1 << 16
	for _, bc := range []struct {
		name         string
		full, memo   bool
		submit, busy bool
	}{
		{name: "full/plain", full: true}, {name: "full/memo", full: true, memo: true},
		{name: "paper/plain"}, {name: "paper/memo", memo: true},
		{name: "full/overlap/update", full: true, busy: true},
		{name: "full/overlap/submit", full: true, busy: true, submit: true},
	} {
		memo := bc.memo
		b.Run(bc.name, func(b *testing.B) {
			tb, a := agedTable(bc.full)
			a.submit = bc.submit
			if bc.busy {
				a.work = overlapWork
			}
			fill := func(id addr.GroupID, g *group) { tb.fill(g, addr.GroupBase(id)) }
			b.ReportAllocs()
			b.ResetTimer()
			start := a.ppa
			for i := 0; i < b.N; i++ {
				if memo {
					b.StopTimer()
					tb.eachGroup(fill)
					b.StartTimer()
				}
				a.age(tb, 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(a.ppa-start), "ns/pair")
			segs := tb.Stats().Segments
			b.ReportMetric(float64(retainedSlots(tb)*int(unsafe.Sizeof(Segment{})+1))/float64(segs), "retainedB/seg")
		})
	}
}

// BenchmarkLookupAged measures translation on BenchmarkAgedCommit's aged
// table, whose groups are far deeper and larger than BenchmarkLookup's
// fresh ones: a cold walk of the levels (the group changed since its
// last fill), an answer from a filled memo, and a whole-group memo fill
// (memo.go). The fill trigger, memoFillLPAs, is about the fill's cost in
// cold walks.
func BenchmarkLookupAged(b *testing.B) {
	tb, _ := agedTable(true)
	rng := rand.New(rand.NewSource(9))
	lpas := make([]addr.LPA, 4096)
	for i := range lpas {
		lpas[i] = addr.LPA(rng.Intn(400 * addr.GroupSize))
	}
	group := func(l addr.LPA) *group { return tb.lookupGroup(addr.Group(l)) }
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lpas[i%len(lpas)]
			group(l).memo.changed()
			tb.Lookup(l)
		}
	})
	b.Run("memo", func(b *testing.B) {
		for _, l := range lpas {
			g := group(l)
			g.memo.changed()
			tb.fill(g, addr.GroupBase(addr.Group(l)))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Lookup(lpas[i%len(lpas)])
		}
	})
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := lpas[i%len(lpas)]
			g := group(l)
			g.memo.changed()
			tb.fill(g, addr.GroupBase(addr.Group(l)))
		}
	})
}
