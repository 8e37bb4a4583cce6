package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leaftl/internal/addr"
)

// Pipelined group commit (docs/ARCHITECTURE.md, "Parallel group
// commit"). commitRun touches nothing but its own group, the table's
// byte count and the mutation scratch, so a batch's group runs may be
// committed in any order, by several workers at once, each with its own
// scratch and byte count, and after the caller has moved on:
//
//   - Submit copies a batch into the table's ring, a FIFO of ringSlots
//     batches, and returns; Update is Submit, then settle. Every other
//     exported Table method but Gamma first settles the ring: the caller
//     commits the runs no helper has claimed, waits for the rest and adds
//     the helpers' deltas.
//   - Runs are claimed only from the front batch, the oldest with an
//     unfinished run, so batches apply in order; whoever finishes a
//     batch's last run moves the front on. A claim word holds the batch's
//     sequence number beside its runs not yet claimed, so a participant
//     that read a slot before it was reused fails its claim.
//   - Helpers, goroutines of a pool shared by every table, take a table
//     when offered it, work its ring until it is empty and let it go, so
//     tables own no goroutines. The group slice grows only while the
//     ring is empty, so workers write their own slots of one slice.
//
// The count is a sum and batches apply in order, so the table is
// bit-identical to the serial loop's whoever committed which run. With
// one worker (GOMAXPROCS = 1, or the test cap) every batch is settled as
// it is submitted.

const (
	// ringSlots is how many submitted batches a table holds before a
	// Submit settles the oldest.
	ringSlots = 32
	// helperSpin is how long an idle helper polls for its next ring
	// before it parks. It spans the gap between the commits of a
	// write-heavy run, where waking a parked goroutine would cost a
	// large share of the batch it is woken for.
	helperSpin = time.Millisecond
	// joinSpin is how long a settling caller that has run out of runs
	// polls for its helpers before it blocks.
	joinSpin = 50 * time.Microsecond
)

// commitRing is a table's queue of submitted batches. head, tail,
// queued, helped and the slots' buffers are the caller's; the atomics are
// shared with the helpers.
type commitRing struct {
	slots      [ringSlots]ringSlot
	head, tail uint32 // sequence numbers of the oldest unsettled batch and the next one
	queued     int    // group runs in the unsettled batches
	helped     int    // test hook: settled batches a helper claimed a run of

	published atomic.Uint32 // tail, as the helpers see it
	front     atomic.Uint32 // the oldest batch with an unfinished run
	attached  atomic.Int32  // helpers offered or working the ring
	waiting   atomic.Bool   // the caller is blocked on wake
	wake      chan struct{}
}

// ringSlot is one pending batch.
type ringSlot struct {
	claim atomic.Uint64 // sequence number << 32 | runs not yet claimed
	left  atomic.Int32  // runs not yet finished
	bytes atomic.Int64  // the helpers' footprint deltas
	pairs []addr.Mapping
	ends  []int32 // ends[i] is one past the last pair of run i
	limit int     // a deferred batch's byte budget (Pager.Defer); 0: none
}

// Submit queues a batch for Update's commit and returns the number of
// groups it touches, without waiting for it: helpers commit it behind the
// caller, and the next call of any other exported method settles it
// first. pairs may be reused once Submit returns.
func (t *Table) Submit(pairs []addr.Mapping) int { return t.submit(pairs, 0, false) }

// submit queues pairs under a byte budget (0: none) and offers the ring
// to helpers: as many as the batch has runs to share with the caller if
// it will settle at once (wait), else one fewer than the workers.
func (t *Table) submit(pairs []addr.Mapping, limit int, wait bool) int {
	if len(pairs) == 0 {
		return 0
	}
	if last := addr.Group(pairs[len(pairs)-1].LPA); int(last) >= len(t.groups) {
		t.settle()
		t.reserve(last)
	}
	r := &t.ring
	if r.tail-r.head == ringSlots {
		t.settleTo(r.head + 1)
	}
	if r.wake == nil {
		r.wake = make(chan struct{}, 1)
	}
	s := &r.slots[r.tail%ringSlots]
	s.pairs = append(s.pairs[:0], pairs...)
	s.ends = s.ends[:0]
	for i := 0; i < len(pairs); {
		gid := addr.Group(pairs[i].LPA)
		for i++; i < len(pairs) && addr.Group(pairs[i].LPA) == gid; i++ {
		}
		s.ends = append(s.ends, int32(i))
	}
	runs := len(s.ends)
	s.limit = limit
	s.bytes.Store(0)
	s.left.Store(int32(runs))
	s.claim.Store(uint64(r.tail)<<32 | uint64(runs))
	r.queued += runs
	r.tail++
	r.published.Store(r.tail)
	workers := t.commitWorkers()
	helpers := workers - 1
	if wait {
		helpers = min(workers, runs) - 1
	}
	pool.offer(t, helpers)
	if workers < 2 {
		t.settle()
	}
	return runs
}

// commitWorkers returns how many workers may commit a batch: the test
// cap, or GOMAXPROCS.
func (t *Table) commitWorkers() int {
	if t.maxWorkers > 0 {
		return t.maxWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// settle settles every submitted batch.
func (t *Table) settle() {
	if t.ring.head != t.ring.tail {
		t.settleTo(t.ring.tail)
	}
}

// settleTo settles the batches before sequence number end, oldest first:
// it commits the runs no helper has claimed, waits for the rest and adds
// the helpers' deltas. A deferred batch that leaves the table past its
// budget means the pager's headroom bound (Pager.Defer) failed.
func (t *Table) settleTo(end uint32) {
	r := &t.ring
	for r.head != end {
		f := r.head
		s := &r.slots[f%ringSlots]
		runs := uint32(len(s.ends))
		// The test hook waits while a helper is offered or working the
		// ring: one that lets it go for another table's offer stops the
		// wait.
		for t.awaitHelper && r.attached.Load() > 0 && r.front.Load() == f && uint32(s.claim.Load()) == runs {
			runtime.Gosched()
		}
		if r.front.Load() != f || uint32(s.claim.Load()) < runs {
			r.helped++
		}
		if r.front.Load() == f {
			t.work(f, t)
			r.await(f)
		}
		t.bytes += int(s.bytes.Load())
		r.queued -= len(s.ends)
		r.head++
		if s.limit > 0 && t.bytes > s.limit {
			panic(fmt.Sprintf("core: a deferred batch left the table at %d B, past its budget of %d B: "+
				"the pager's headroom bound (%d B per group) is broken", t.bytes, s.limit, groupCeiling))
		}
	}
}

// work commits runs of the front batch f with w's scratch until none is
// left to claim. A helper's worker borrows t's group slice for one run
// and sends its delta to the slot; the caller (w == t) keeps its own.
func (t *Table) work(f uint32, w *Table) {
	r := &t.ring
	s := &r.slots[f%ringSlots]
	for {
		c := s.claim.Load()
		if uint32(c>>32) != f || uint32(c) == 0 {
			return
		}
		if !s.claim.CompareAndSwap(c, c-1) {
			continue
		}
		i := int(uint32(c)) - 1
		lo := int32(0)
		if i > 0 {
			lo = s.ends[i-1]
		}
		if w == t {
			t.commitRun(s.pairs[lo:s.ends[i]])
		} else {
			w.gamma, w.groups = t.gamma, t.groups
			w.commitRun(s.pairs[lo:s.ends[i]])
			s.bytes.Add(int64(w.bytes))
			w.bytes, w.groups = 0, nil
		}
		if s.left.Add(-1) == 0 {
			r.front.Store(f + 1)
			r.signal()
		}
	}
}

// await waits for batch f to finish: briefly by polling, then blocked on
// wake, which the participant finishing f signals.
func (r *commitRing) await(f uint32) {
	deadline := time.Now().Add(joinSpin)
	for r.front.Load() == f {
		if time.Now().Before(deadline) {
			runtime.Gosched()
			continue
		}
		r.waiting.Store(true)
		if r.front.Load() == f {
			<-r.wake
		}
		r.waiting.Store(false)
	}
}

// signal wakes a caller blocked in await. The caller raises waiting
// before its last look at the front, and a finisher moves the front
// before it looks at waiting, so one of the two always sees the other; a
// stale wake-up only makes await look again.
func (r *commitRing) signal() {
	if r.waiting.Load() && r.waiting.CompareAndSwap(true, false) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// helperPool is the package's set of commit helpers. It grows to the most
// helpers any ring has been offered to (GOMAXPROCS − 1, or a test's cap
// minus one) and never shrinks.
type helperPool struct {
	mu      sync.Mutex
	helpers []*helper
}

var pool helperPool

// taken marks a helper's job slot while the helper works the ring it
// took; no other ring can then be offered to it.
var taken = new(Table)

// helper is one pool goroutine with its worker table. job holds nil while
// it is idle, the table whose ring it was offered, or taken while it
// works one.
type helper struct {
	job    atomic.Pointer[Table]
	parked atomic.Bool
	wake   chan struct{}
	w      *Table
}

// offer hands t's ring to idle helpers until n are offered it or working
// it, starting helpers until the pool has n.
func (p *helperPool) offer(t *Table, n int) {
	r := &t.ring
	if int(r.attached.Load()) >= n {
		return
	}
	p.mu.Lock()
	for len(p.helpers) < n {
		h := &helper{wake: make(chan struct{}, 1), w: &Table{}}
		p.helpers = append(p.helpers, h)
		go h.run()
	}
	helpers := p.helpers
	p.mu.Unlock()

	for _, h := range helpers {
		if int(r.attached.Load()) >= n {
			return
		}
		// Count the helper before it can take the offer and let it go.
		r.attached.Add(1)
		if !h.job.CompareAndSwap(nil, t) {
			r.attached.Add(-1)
			continue
		}
		if h.parked.Load() {
			select {
			case h.wake <- struct{}{}:
			default:
			}
		}
	}
}

func (h *helper) run() {
	for {
		h.serve(h.await())
	}
}

// await returns the next table offered to h, marking h taken. It polls
// for helperSpin, yielding the processor between polls, then parks until
// an offer wakes it. The parked flag is raised before the last poll and
// checked by offer after its offer is in place, so one of the two always
// sees the other; a wake-up that finds nothing to take polls and parks
// again.
func (h *helper) await() *Table {
	for {
		for deadline := time.Now().Add(helperSpin); time.Now().Before(deadline); runtime.Gosched() {
			if t := h.job.Load(); t != nil && h.job.CompareAndSwap(t, taken) {
				return t
			}
		}
		h.parked.Store(true)
		if h.job.Load() == nil {
			<-h.wake
		}
		h.parked.Store(false)
	}
}

// serve works t's ring until it is empty: the front batch's unclaimed
// runs, then, once the runs others claimed have finished, the next batch.
// Then it lets the ring go. A batch submitted while h let go may have
// counted h as working and offered no one, so h takes the ring back if it
// is not empty and no other offer came first.
func (h *helper) serve(t *Table) {
	r := &t.ring
	for {
		for f := r.front.Load(); f != r.published.Load(); f = r.front.Load() {
			t.work(f, h.w)
			for r.front.Load() == f {
				runtime.Gosched()
			}
		}
		h.job.Store(nil)
		r.attached.Add(-1)
		if r.front.Load() == r.published.Load() || !h.job.CompareAndSwap(nil, taken) {
			return
		}
		r.attached.Add(1)
	}
}
