package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"leaftl/internal/addr"
)

// commitTwins feeds one seeded stream of host, GC-relocation and repair
// batches to a table held to one worker and to a table allowed several,
// keeping a map oracle of every written LPA's true PPA. PPAs come from
// one ascending log, like flash pages.
type commitTwins struct {
	t        *testing.T
	rng      *rand.Rand
	serial   *Table
	parallel *Table
	truth    map[addr.LPA]addr.PPA
	log      addr.PPA
}

// twinSpace is the LPA space the twins write: enough groups that most
// batches hold several group runs.
const twinSpace = 16 * addr.GroupSize

func newCommitTwins(t *testing.T, seed int64, gamma, workers int, bitmap bool) *commitTwins {
	c := &commitTwins{
		t: t, rng: rand.New(rand.NewSource(seed)),
		serial: NewTable(gamma), parallel: NewTable(gamma),
		truth: make(map[addr.LPA]addr.PPA),
	}
	c.serial.maxWorkers, c.parallel.maxWorkers = 1, workers
	if bitmap {
		c.serial.EnableExactBitmap()
		c.parallel.EnableExactBitmap()
	}
	return c
}

func (c *commitTwins) place(set map[addr.LPA]bool) []addr.Mapping {
	lpas := sortedLPAs(set)
	pairs := make([]addr.Mapping, len(lpas))
	for i, l := range lpas {
		pairs[i] = addr.Mapping{LPA: l, PPA: c.log}
		c.truth[l] = c.log
		c.log++
	}
	return pairs
}

// hostBatch is one sorted buffer flush of scattered pages, strided runs
// and sequential runs spread over the space.
func (c *commitTwins) hostBatch() {
	set := map[addr.LPA]bool{}
	for n := 2 + c.rng.Intn(6); n > 0; n-- {
		start := c.rng.Intn(twinSpace)
		switch c.rng.Intn(3) {
		case 0:
			for i := 0; i < 24; i++ {
				set[addr.LPA(c.rng.Intn(twinSpace))] = true
			}
		case 1:
			st := 2 + c.rng.Intn(6)
			for i := 0; i < 32 && start+i*st < twinSpace; i++ {
				set[addr.LPA(start+i*st)] = true
			}
		default:
			for i := 0; i < 1+c.rng.Intn(160) && start+i < twinSpace; i++ {
				set[addr.LPA(start+i)] = true
			}
		}
	}
	pairs := c.place(set)
	c.serial.Update(pairs)
	c.parallel.Update(pairs)
}

// gcBatch relocates the live pages of a 1 024-page stretch of the log in
// ascending-LPA order, the way a GC window does.
func (c *commitTwins) gcBatch() {
	if c.log < 2048 {
		return
	}
	lo := addr.PPA(c.rng.Intn(int(c.log) - 1024))
	set := map[addr.LPA]bool{}
	for l, p := range c.truth {
		if p >= lo && p < lo+1024 {
			set[l] = true
		}
	}
	if len(set) == 0 {
		return
	}
	pairs := c.place(set)
	ga := c.serial.Update(pairs)
	gb := c.parallel.Update(pairs)
	if sa, sb := c.serial.Stats(), c.parallel.Stats(); sa != sb || ga != gb {
		c.t.Fatalf("GC batch: serial touched %d groups to %+v, parallel %d to %+v", ga, sa, gb, sb)
	}
}

// repair plays the device's read feedback: an unverified approximate
// answer is checked against the oracle and a miss is pinned with an
// exact point, on both tables.
func (c *commitTwins) repair() {
	for i := 0; i < 32; i++ {
		l := addr.LPA(c.rng.Intn(twinSpace))
		want, ok := c.truth[l]
		if !ok {
			continue
		}
		got, res, _ := c.serial.Lookup(l)
		if !res.Approx || res.Exact {
			continue
		}
		for _, tb := range []*Table{c.serial, c.parallel} {
			tb.NoteRead(l, got, want, true)
			if got != want {
				tb.Insert(Learned{Seg: Segment{SLPA: l, I: float32(want)}, LPAs: []addr.LPA{l}})
			}
		}
	}
}

// check requires the twins to be the same table.
func (c *commitTwins) check(when string) {
	c.t.Helper()
	if !maps.EqualFunc(groupImages(c.t, c.serial), groupImages(c.t, c.parallel), bytes.Equal) {
		c.t.Fatalf("%s: group images differ", when)
	}
	if sa, sb := c.serial.Stats(), c.parallel.Stats(); sa != sb {
		c.t.Fatalf("%s: stats diverge: serial %+v, parallel %+v", when, sa, sb)
	}
	oracle := func(l addr.LPA) (addr.PPA, bool) { p, ok := c.truth[l]; return p, ok }
	for _, tb := range []*Table{c.serial, c.parallel} {
		if err := tb.CheckShape(); err != nil {
			c.t.Fatalf("%s: %v", when, err)
		}
		if err := tb.AuditExactBits(oracle); err != nil {
			c.t.Fatalf("%s: %v", when, err)
		}
	}
}

// helpersWorked reports whether any pool helper committed a run of tb:
// a worker table's learn buffer grows on its first run.
func helpersWorked(tb *Table) bool {
	for _, w := range tb.workers {
		if cap(w.learner.out) > 0 {
			return true
		}
	}
	return false
}

// TestParallelCommitMatchesSerial: a table that spreads its batches over
// helpers is the table that commits them one run at a time, after every
// host, GC-relocation and repair batch, in group-record bytes,
// statistics, shape and exact bits.
func TestParallelCommitMatchesSerial(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		for _, bitmap := range []bool{false, true} {
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("gamma%d/bitmap=%v/workers%d", gamma, bitmap, workers), func(t *testing.T) {
					c := newCommitTwins(t, int64(10*gamma+workers), gamma, workers, bitmap)
					for round := 0; round < 200; round++ {
						switch r := c.rng.Intn(10); {
						case r < 5:
							c.hostBatch()
						case r < 8:
							c.gcBatch()
						default:
							c.repair()
						}
						c.check(fmt.Sprintf("round %d", round))
					}
					if len(c.serial.workers) != 0 || len(c.parallel.workers) != workers-1 {
						t.Fatalf("worker tables: serial %d, parallel %d; want 0 and %d",
							len(c.serial.workers), len(c.parallel.workers), workers-1)
					}
					if runtime.GOMAXPROCS(0) > 1 && !helpersWorked(c.parallel) {
						t.Error("no helper committed a run in 200 batches")
					}
					if err := checkStructure(c.parallel); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// spreadBatch is one sequential run of per LPAs at the start of each of
// groups groups, on consecutive PPAs from ppa.
func spreadBatch(groups, per int, ppa addr.PPA) []addr.Mapping {
	pairs := make([]addr.Mapping, 0, groups*per)
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			pairs = append(pairs, addr.Mapping{LPA: addr.LPA(g*addr.GroupSize + i), PPA: ppa})
			ppa++
		}
	}
	return pairs
}

// TestParallelCommitGoroutinesBounded: tables own no goroutines. A
// thousand tables committing multi-group batches leave behind at most
// the helpers the pool needed for them.
func TestParallelCommitGoroutinesBounded(t *testing.T) {
	const workers = 4
	batch := spreadBatch(8, 32, 0)
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		tb := NewTable(4)
		tb.maxWorkers = workers
		tb.Update(batch)
	}
	if grown := runtime.NumGoroutine() - before; grown > workers-1 {
		t.Fatalf("1000 tables left %d more goroutines, pool bound %d", grown, workers-1)
	}
}

// TestParallelCommitReleasesTable: once a batch is done, no helper holds
// its table, so a dropped table is collected.
func TestParallelCommitReleasesTable(t *testing.T) {
	freed := make(chan struct{})
	func() {
		tb := NewTable(4)
		tb.maxWorkers = 2
		for i := 0; i < 50; i++ {
			tb.Update(spreadBatch(8, 64, addr.PPA(i*512)))
		}
		runtime.SetFinalizer(tb, func(*Table) { close(freed) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a dropped table stayed reachable after parallel commits")
}

// TestParallelCommitZeroAllocs: the fan-out, hand-off and join allocate
// nothing. The batches rewrite the same groups in two alternating shapes,
// so once scratch and levels have grown the serial commit allocates
// nothing either.
func TestParallelCommitZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tb := NewTable(0)
	tb.EnableExactBitmap()
	tb.maxWorkers = 2
	ppa := addr.PPA(0)
	next := func(i int) []addr.Mapping {
		pairs := make([]addr.Mapping, 0, 8*addr.GroupSize)
		for g := 0; g < 8; g++ {
			for o := i % 2; o < addr.GroupSize; o += 1 + i%2 {
				pairs = append(pairs, addr.Mapping{LPA: addr.LPA(g*addr.GroupSize + o), PPA: ppa})
				ppa++
			}
		}
		return pairs
	}
	batches := make([][]addr.Mapping, 64)
	for i := range batches {
		batches[i] = next(i)
	}
	for i := 0; i < 4*len(batches); i++ {
		tb.Update(batches[i%len(batches)])
	}
	// The runtime now and then refills a per-processor cache of the
	// records a blocked channel operation uses, which counts as a malloc.
	// Any allocation made per commit shows in every round; the best of
	// five rounds must be clean.
	best := uint64(1 << 63)
	for round := 0; round < 5; round++ {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for _, b := range batches {
			tb.Update(b)
		}
		runtime.ReadMemStats(&ms)
		best = min(best, ms.Mallocs-before)
	}
	if best != 0 {
		t.Fatalf("%d warmed parallel commits allocated %d objects at best, want 0", len(batches), best)
	}
	if !helpersWorked(tb) {
		t.Error("no helper committed a run")
	}
}
