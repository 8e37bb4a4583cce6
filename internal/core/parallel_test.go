package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"leaftl/internal/addr"
)

// commitTwins feeds one seeded stream of host, GC-relocation and repair
// batches to a table held to one worker, to a table allowed several that
// commits each batch before the next (Update), and to one allowed as
// many that queues them (Submit), keeping a map oracle of every written
// LPA's true PPA. PPAs come from one ascending log, like flash pages.
type commitTwins struct {
	t         *testing.T
	rng       *rand.Rand
	serial    *Table
	parallel  *Table
	submitted *Table
	truth     map[addr.LPA]addr.PPA
	log       addr.PPA
}

// twinSpace is the LPA space the twins write: enough groups that most
// batches hold several group runs.
const twinSpace = 16 * addr.GroupSize

// newCommitTwins returns twin tables of the paper preset at gamma, or of
// the full preset (bitmap), which learns at γ = 0 (presetGamma).
func newCommitTwins(t *testing.T, seed int64, gamma, workers int, bitmap bool) *commitTwins {
	gamma = presetGamma(gamma, bitmap)
	c := &commitTwins{
		t: t, rng: rand.New(rand.NewSource(seed)),
		serial: NewTable(gamma), parallel: NewTable(gamma), submitted: NewTable(gamma),
		truth: make(map[addr.LPA]addr.PPA),
	}
	c.serial.maxWorkers, c.parallel.maxWorkers, c.submitted.maxWorkers = 1, workers, workers
	c.parallel.awaitHelper, c.submitted.awaitHelper = true, true
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

// commit hands pairs to the three twins and requires them to count the
// same groups. The submitted twin gets a buffer that is scribbled over
// once Submit returns, as the device reuses its own.
func (c *commitTwins) commit(what string, pairs []addr.Mapping) {
	ga, gb := c.serial.Update(pairs), c.parallel.Update(pairs)
	reused := slices.Clone(pairs)
	gc := c.submitted.Submit(reused)
	clear(reused)
	if ga != gb || ga != gc {
		c.t.Fatalf("%s batch: serial touched %d groups, parallel %d, submitted %d", what, ga, gb, gc)
	}
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
	c.commit("host", c.place(set))
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
	c.commit("GC", c.place(set))
	if sa, sb := c.serial.Stats(), c.parallel.Stats(); sa != sb {
		c.t.Fatalf("GC batch: serial stats %+v, parallel %+v", sa, sb)
	}
}

// repair checks approximate answers against the oracle and
// pins each miss with an exact point, on every twin.
func (c *commitTwins) repair() {
	for i := 0; i < 32; i++ {
		l := addr.LPA(c.rng.Intn(twinSpace))
		want, ok := c.truth[l]
		if !ok {
			continue
		}
		got, res, _ := c.serial.Lookup(l)
		if !res.Approx {
			continue
		}
		if got == want {
			continue
		}
		for _, tb := range c.tables() {
			tb.settle()
			tb.insert(Learned{Seg: Segment{SLPA: l, I: float32(want)}, LPAs: []addr.LPA{l}})
		}
	}
}

func (c *commitTwins) tables() []*Table { return []*Table{c.serial, c.parallel, c.submitted} }

// probe calls one of the exported methods that settle the submitted
// twin's pending batches, or none, and requires every twin to answer
// alike. Compact runs on every twin.
func (c *commitTwins) probe() {
	c.t.Helper()
	s, q := c.serial, c.submitted
	switch c.rng.Intn(6) {
	case 0:
		l := addr.LPA(c.rng.Intn(twinSpace))
		pa, ra, oka := s.Lookup(l)
		pb, rb, okb := q.Lookup(l)
		if pa != pb || ra != rb || oka != okb {
			c.t.Fatalf("Lookup(%d): serial %d %+v %v, submitted %d %+v %v", l, pa, ra, oka, pb, rb, okb)
		}
	case 1:
		if a, b := s.SizeBytes(), q.SizeBytes(); a != b {
			c.t.Fatalf("SizeBytes: serial %d, submitted %d", a, b)
		}
	case 2:
		for _, tb := range c.tables() {
			tb.Compact()
		}
	case 3:
		id := addr.GroupID(c.rng.Intn(twinSpace / addr.GroupSize))
		a, erra := s.MarshalGroup(id)
		b, errb := q.MarshalGroup(id)
		if !bytes.Equal(a, b) || (erra == nil) != (errb == nil) {
			c.t.Fatalf("MarshalGroup(%d): serial %x %v, submitted %x %v", id, a, erra, b, errb)
		}
	case 4:
		if a, b := s.Stats(), q.Stats(); a != b {
			c.t.Fatalf("Stats: serial %+v, submitted %+v", a, b)
		}
	}
}

// check requires the twins to be the same table.
func (c *commitTwins) check(when string) {
	c.t.Helper()
	want := groupImages(c.t, c.serial)
	stats := c.serial.Stats()
	for _, tb := range c.tables()[1:] {
		if !maps.EqualFunc(want, groupImages(c.t, tb), bytes.Equal) {
			c.t.Fatalf("%s: group images differ", when)
		}
		if st := tb.Stats(); st != stats {
			c.t.Fatalf("%s: stats diverge: serial %+v, twin %+v", when, stats, st)
		}
	}
	oracle := func(l addr.LPA) (addr.PPA, bool) { p, ok := c.truth[l]; return p, ok }
	for _, tb := range c.tables() {
		if err := tb.CheckShape(); err != nil {
			c.t.Fatalf("%s: %v", when, err)
		}
		if err := tb.AuditExact(oracle); err != nil {
			c.t.Fatalf("%s: %v", when, err)
		}
	}
}

// helpersWorked reports whether a pool helper claimed a run of any batch
// tb has settled. A table whose awaitHelper hook is set lets a helper
// claim the first run of every batch it settles with a helper on its
// ring, so on such a table the check does not race the caller for the
// runs.
func helpersWorked(tb *Table) bool { return tb.ring.helped > 0 }

// TestParallelCommitMatchesSerial: a table that spreads its batches over
// helpers, and one that queues them behind the caller (Submit), are the
// table that commits them one run at a time, after every round of
// host, GC-relocation and repair batches, in group-record bytes,
// statistics and shape, with every accurate answer exact; bitmap=true
// runs the full preset's γ = 0 table (presetGamma). Between the batches
// of a round, Lookup, SizeBytes, Compact, MarshalGroup and Stats settle
// the queue at seeded points and must answer as the serial twin does.
// The parallel twins hold a settling caller back until a helper has
// claimed a run (awaitHelper), so at any GOMAXPROCS and under any load
// helpers commit runs.
func TestParallelCommitMatchesSerial(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		for _, bitmap := range []bool{false, true} {
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("gamma%d/bitmap=%v/workers%d", gamma, bitmap, workers), func(t *testing.T) {
					c := newCommitTwins(t, int64(10*gamma+workers), gamma, workers, bitmap)
					for round := 0; round < 80; round++ {
						for n := 1 + c.rng.Intn(6); n > 0; n-- {
							switch r := c.rng.Intn(10); {
							case r < 5:
								c.hostBatch()
							case r < 8:
								c.gcBatch()
							default:
								c.repair()
							}
							if c.rng.Intn(3) == 0 {
								c.probe()
							}
						}
						c.check(fmt.Sprintf("round %d", round))
					}
					if helpersWorked(c.serial) {
						t.Fatal("a helper committed a run of the one-worker table")
					}
					for _, tb := range c.tables()[1:] {
						if !helpersWorked(tb) {
							t.Error("no helper committed a run in 80 rounds")
						}
						if err := checkStructure(tb); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestParallelCommitRingOverflow: a table that is submitted more batches
// than its ring has slots, with nothing settling them in between, settles
// the oldest to make room and ends as the serial twin.
func TestParallelCommitRingOverflow(t *testing.T) {
	c := newCommitTwins(t, 7, 0, 2, true)
	c.submitted.awaitHelper = false
	full := false
	for i := 0; i < 3*ringSlots+5; i++ {
		if c.rng.Intn(4) == 0 {
			c.gcBatch()
		} else {
			c.hostBatch()
		}
		r := &c.submitted.ring
		full = full || r.tail-r.head == ringSlots
	}
	if !full {
		t.Fatalf("the ring never held %d batches", ringSlots)
	}
	c.check("after the overflow")
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

// commitModes are the two ways a batch reaches a table: committed
// before the call returns, or queued for helpers to commit behind the
// caller until the next settling call.
var commitModes = []struct {
	name   string
	commit func(*Table, []addr.Mapping) int
}{
	{"update", (*Table).Update},
	{"submit", (*Table).Submit},
}

// TestParallelCommitGoroutinesBounded: tables own no goroutines. A
// thousand tables committing multi-group batches leave behind at most
// the helpers the pool needed for them, whether each batch was settled
// or left in the table's ring.
func TestParallelCommitGoroutinesBounded(t *testing.T) {
	const workers = 4
	batch := spreadBatch(8, 32, 0)
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 1000; i++ {
				tb := NewTable(4)
				tb.maxWorkers = workers
				mode.commit(tb, batch)
			}
			if grown := runtime.NumGoroutine() - before; grown > workers-1 {
				t.Fatalf("1000 tables left %d more goroutines, pool bound %d", grown, workers-1)
			}
		})
	}
}

// TestParallelCommitReleasesTable: once a table's ring is empty, no
// helper holds the table, so a dropped table is collected: after settled
// commits, and after submitted ones once the helpers have drained the
// ring and let it go.
func TestParallelCommitReleasesTable(t *testing.T) {
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			freed := make(chan struct{})
			func() {
				tb := NewTable(4)
				tb.maxWorkers = 2
				for i := 0; i < 50; i++ {
					mode.commit(tb, spreadBatch(8, 64, addr.PPA(i*512)))
				}
				for tb.ring.attached.Load() > 0 {
					runtime.Gosched()
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
		})
	}
}

// TestParallelCommitZeroAllocs: the fan-out, hand-off and join allocate
// nothing, and neither do queueing a batch in the ring (its pairs copied
// into the slot's buffer) and settling it. The batches rewrite the same
// groups in two alternating shapes, so once scratch and levels have
// grown the serial commit allocates nothing either.
func TestParallelCommitZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			tb := NewTable(0)
			tb.maxWorkers, tb.awaitHelper = 2, true
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
				mode.commit(tb, batches[i%len(batches)])
			}
			tb.SizeBytes()
			// The runtime now and then refills a per-processor cache of
			// the records a blocked channel operation uses, which counts as
			// a malloc. Any allocation made per commit shows in every
			// round; the best of five rounds must be clean.
			best := uint64(1 << 63)
			for round := 0; round < 5; round++ {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				for _, b := range batches {
					mode.commit(tb, b)
				}
				tb.SizeBytes()
				runtime.ReadMemStats(&ms)
				best = min(best, ms.Mallocs-before)
			}
			if best != 0 {
				t.Fatalf("%d warmed parallel commits allocated %d objects at best, want 0", len(batches), best)
			}
			if !helpersWorked(tb) {
				t.Error("no helper committed a run")
			}
		})
	}
}
