package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leaftl/internal/addr"
)

// Parallel group commit. A committed batch is a sequence of group runs,
// and commitRun touches nothing but its own group, the table's byte
// count and the mutation scratch. So the runs of one batch may be
// committed in any order and by several workers at once, provided each
// worker brings its own scratch and its own byte count:
//
//   - A worker is a Table that shares the committing table's group slice
//     for the length of one batch. Its scratch (mark, offs, victims,
//     edits, learner, rb) is its own, and its bytes start at zero and
//     collect the footprint deltas of the runs it commits.
//   - The slice is grown to the batch's last group before fan-out, so
//     every worker writes its own slots and none reallocates it.
//   - Runs are claimed one at a time through an atomic index. The caller
//     claims too, with the table's own scratch and byte count.
//   - After the join the caller adds each worker's delta to the table.
//     The count is a sum, so the result does not depend on who committed
//     which run: the table is bit-identical to the serial loop's.
//
// The workers run on a pool of helper goroutines shared by every table in
// the package. A helper spins for a while after each batch, so a batch
// that follows soon after is picked up at once, and then parks. A batch
// enlists only idle helpers, and withdraws an offer a helper has not
// taken by the time the caller runs out of runs, so a parked helper that
// wakes late costs the caller nothing. A helper keeps no reference to a
// batch, or to its table, once the batch is done.

const (
	// helperSpin is how long an idle helper polls for its next batch
	// before it parks. It spans the gap between the commits of a
	// write-heavy run, where waking a parked goroutine would cost a
	// large share of the batch it is woken for.
	helperSpin = time.Millisecond
	// joinSpin is how long a caller that has run out of runs polls for
	// its helpers before it blocks.
	joinSpin = 50 * time.Microsecond
)

// commitBatch is one batch's shared state while its runs are committed.
type commitBatch struct {
	pairs   []addr.Mapping
	ends    []int    // ends[i] is one past the last pair of run i
	workers []*Table // one per helper offered the batch

	next    atomic.Int32 // index of the next unclaimed run
	slot    atomic.Int32 // index of the next worker table to hand out
	pending atomic.Int32 // helpers working the batch, plus one for the caller
	done    chan struct{}
	offered []*helper
}

// commitHelpers returns how many pool helpers a batch of the given number
// of group runs is offered: one fewer than the workers it may use (the
// test cap, or GOMAXPROCS), and none for a single run.
func (t *Table) commitHelpers(runs int) int {
	if runs < 2 {
		return 0
	}
	workers := t.maxWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, runs) - 1
}

// commitParallel commits the runs recorded in t.batch.ends with the
// caller and up to helpers pool helpers.
func (t *Table) commitParallel(pairs []addr.Mapping, helpers int) {
	t.reserve(addr.Group(pairs[len(pairs)-1].LPA))
	for len(t.workers) < helpers {
		t.workers = append(t.workers, &Table{})
	}
	b := &t.batch
	b.pairs, b.workers = pairs, t.workers[:helpers]
	for _, w := range b.workers {
		w.gamma, w.groups = t.gamma, t.groups
	}
	b.next.Store(0)
	b.slot.Store(0)
	pool.offer(b, helpers)
	if t.awaitHelper && len(b.offered) > 0 {
		// The test hook: an offered helper always takes its offer, so
		// the first run it claims ends the wait.
		for b.next.Load() == 0 {
			runtime.Gosched()
		}
	}
	b.work(t)
	b.join()
	for _, w := range b.workers {
		t.absorb(w)
		w.groups = nil
	}
	b.pairs, b.workers = nil, nil
}

// work commits runs with w's scratch until none are left.
func (b *commitBatch) work(w *Table) {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.ends) {
			return
		}
		start := 0
		if i > 0 {
			start = b.ends[i-1]
		}
		w.commitRun(b.pairs[start:b.ends[i]])
	}
}

// join withdraws the offers no helper took and waits for the helpers that
// took one: briefly by polling, then blocked on done, which the last
// helper to finish signals.
func (b *commitBatch) join() {
	for _, h := range b.offered {
		if h.job.CompareAndSwap(b, nil) {
			b.pending.Add(-1)
		}
	}
	if b.pending.Add(-1) == 0 {
		return
	}
	deadline := time.Now().Add(joinSpin)
	for b.pending.Load() != 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	<-b.done
}

// absorb adds worker w's byte delta to t and zeroes it.
func (t *Table) absorb(w *Table) {
	t.bytes += w.bytes
	w.bytes = 0
}

// helperPool is the package's set of commit helpers. It grows to the most
// helpers any batch has been offered to (GOMAXPROCS − 1, or a test's cap
// minus one) and never shrinks.
type helperPool struct {
	mu      sync.Mutex
	helpers []*helper
}

var pool helperPool

// taken marks a helper's job slot while the helper works the batch it
// took; an offer can then be neither made nor withdrawn.
var taken = new(commitBatch)

// helper is one pool goroutine. job holds nil while it is idle, the
// batch offered to it, or taken while it works one.
type helper struct {
	job    atomic.Pointer[commitBatch]
	parked atomic.Bool
	wake   chan struct{}
}

// offer hands b to up to n idle helpers, starting helpers until the pool
// has n.
func (p *helperPool) offer(b *commitBatch, n int) {
	p.mu.Lock()
	for len(p.helpers) < n {
		h := &helper{wake: make(chan struct{}, 1)}
		p.helpers = append(p.helpers, h)
		go h.run()
	}
	helpers := p.helpers
	p.mu.Unlock()

	if b.done == nil {
		b.done = make(chan struct{}, 1)
	}
	b.pending.Store(1)
	b.offered = b.offered[:0]
	for _, h := range helpers {
		if len(b.offered) == n {
			break
		}
		// Count the helper before it can take the offer, so pending cannot
		// reach zero while the caller still holds its own share.
		b.pending.Add(1)
		if !h.job.CompareAndSwap(nil, b) {
			b.pending.Add(-1)
			continue
		}
		b.offered = append(b.offered, h)
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

// await returns the next batch offered to h, marking it taken. It polls
// for helperSpin, yielding the processor between polls, then parks until
// an offer wakes it. The parked flag is raised before the last poll and
// checked by offer after its offer is in place, so one of the two always
// sees the other; a wake-up that finds nothing to take polls and parks
// again.
func (h *helper) await() *commitBatch {
	for {
		for deadline := time.Now().Add(helperSpin); time.Now().Before(deadline); runtime.Gosched() {
			if b := h.job.Load(); b != nil && h.job.CompareAndSwap(b, taken) {
				return b
			}
		}
		h.parked.Store(true)
		if h.job.Load() == nil {
			<-h.wake
		}
		h.parked.Store(false)
	}
}

// serve works b with the next worker table, then frees h and, as the
// last helper out, signals the caller. b is not touched after that.
func (h *helper) serve(b *commitBatch) {
	w := b.workers[b.slot.Add(1)-1]
	b.work(w)
	h.job.Store(nil)
	if b.pending.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}
