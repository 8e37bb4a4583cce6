package flash

import (
	"math/rand"
	"testing"
	"time"
)

const (
	tlR = 20 * time.Microsecond
	tlW = 200 * time.Microsecond
	tlE = 1500 * time.Microsecond
)

// busyUntil returns the end of the last thing booked.
func (tl *timeline) busyUntil() time.Duration {
	if n := len(tl.spans); n > 0 {
		return tl.spans[n-1].end
	}
	return tl.floor
}

// TestTimelineBookFirstFit pins book: the earliest gap at or after now
// that fits, the plain queue when nothing is booked ahead, and merging
// of touching spans of one kind.
func TestTimelineBookFirstFit(t *testing.T) {
	tl := newTimeline(maxSpans)
	if d := tl.book(0, tlW, kindProgram); d != tlW {
		t.Fatalf("first program done at %v", d)
	}
	if d := tl.book(0, tlW, kindProgram); d != 2*tlW {
		t.Fatalf("queued program done at %v, want %v", d, 2*tlW)
	}
	if len(tl.spans) != 1 {
		t.Fatalf("back-to-back programs left %d spans, want one run", len(tl.spans))
	}
	// An erase reserved at 1ms: [400µs, 1ms) stays open.
	if d := tl.book(time.Millisecond, tlE, kindErase); d != time.Millisecond+tlE {
		t.Fatalf("erase booked ahead done at %v", d)
	}
	for i, want := range []time.Duration{3 * tlW, 4 * tlW, 5 * tlW} { // three programs fit the 600µs gap
		if d := tl.book(0, tlW, kindProgram); d != want {
			t.Fatalf("gap program %d done at %v, want %v", i, d, want)
		}
	}
	if d := tl.book(0, tlW, kindProgram); d != time.Millisecond+tlE+tlW {
		t.Fatalf("program that no longer fits done at %v, want after the erase", d)
	}
	if err := tl.check(); err != nil {
		t.Fatal(err)
	}
	if len(tl.spans) != 3 || tl.busyUntil() != time.Millisecond+tlE+tlW {
		t.Fatalf("spans %+v", tl.spans)
	}
}

// TestTimelineTrimIsAFloor: retiring history only ever delays. A gap
// that lay before the retired spans is gone; nothing starts before the
// floor; the audit still balances.
func TestTimelineTrimIsAFloor(t *testing.T) {
	tl := newTimeline(2)
	for i := 0; i < 5; i++ { // erases 2ms apart: 500µs gaps between them
		tl.book(time.Duration(i)*2*time.Millisecond, tlE, kindErase)
	}
	if err := tl.check(); err != nil {
		t.Fatal(err)
	}
	// The next operation trims to the two newest spans first.
	if d := tl.read(0, tlR, tlW); d != 5500*time.Microsecond+tlR {
		t.Fatalf("read after trim done at %v, want right after the floor", d)
	}
	if tl.floor != 5500*time.Microsecond || tl.pruned != 3*tlE {
		t.Fatalf("floor %v pruned %v", tl.floor, tl.pruned)
	}
	if err := tl.check(); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineZeroAllocs: span storage is preallocated per die and
// never grows, however long the die runs — reads that split program runs
// and bookings behind reservations included.
func TestTimelineZeroAllocs(t *testing.T) {
	tl := newTimeline(maxSpans)
	var now time.Duration
	if n := testing.AllocsPerRun(20*maxSpans, func() {
		tl.book(now, tlW, kindProgram)
		tl.book(now, tlW, kindProgram)
		tl.read(now, tlR, tlW)
		tl.book(now+5*time.Millisecond, tlE, kindErase)
		now += 300 * time.Microsecond
	}); n != 0 {
		t.Errorf("%v allocations per round of timeline operations, want 0", n)
	}
	if err := tl.check(); err != nil {
		t.Fatal(err)
	}
}

// tlOp is one step of a random timeline workload.
type tlOp struct {
	kind    uint8 // 0 program, 1 erase, 2 read, 3 read + retries
	now     time.Duration
	retries int
}

// apply runs op on tl and returns its completion and the least it may
// be: now plus the operation's own latency.
func (op tlOp) apply(t *testing.T, tl *timeline) (done, least time.Duration) {
	switch op.kind {
	case 0:
		return tl.book(op.now, tlW, kindProgram), op.now + tlW
	case 1:
		return tl.book(op.now, tlE, kindErase), op.now + tlE
	}
	done, least = tl.read(op.now, tlR, tlW), op.now+tlR
	if op.kind == 3 {
		extra := time.Duration(op.retries) * tlR
		if got := tl.extend(done, extra); got != done+extra {
			t.Fatalf("%+v: extend(%v, %v) = %v", op, done, extra, got)
		}
		done, least = done+extra, least+extra
	}
	return done, least
}

// runTimelineOps drives a timeline with history bound 2·limit through
// ops. Before each one it copies the timeline twice, with the bound
// halved and halved again, and applies the operation to all three: a
// shorter history must never complete it earlier. After every step all
// three pass the audit (conservation of die time included) and no
// operation completes before now + its latency.
//
// The comparison is per operation from a common state on purpose. Over
// a whole run no pruning rule could promise it, because the scheduler
// itself is not monotone in its state: a read that finds a program run
// 20µs later than it would have been goes ahead of it instead of waiting
// a tPROG inside it.
func runTimelineOps(t *testing.T, limit int, ops []tlOp) {
	t.Helper()
	ref := newTimeline(2 * limit)
	for n, op := range ops {
		var dones [3]time.Duration
		// The copies first: they start from the state ref is about to leave.
		for k, lim := range []int{limit / 2, limit} {
			c := ref
			c.limit = lim
			c.buf = make([]span, len(ref.buf))
			c.spans = c.buf[:copy(c.buf, ref.spans)]
			done, _ := op.apply(t, &c)
			if err := c.check(); err != nil {
				t.Fatalf("op %d %+v, bound %d: %v", n, op, lim, err)
			}
			dones[k] = done
		}
		done, least := op.apply(t, &ref)
		if err := ref.check(); err != nil {
			t.Fatalf("op %d %+v: %v", n, op, err)
		}
		if done < least {
			t.Fatalf("op %d %+v: done %v, before now + latency", n, op, done)
		}
		dones[2] = done
		if dones[0] < dones[1] || dones[1] < dones[2] {
			t.Fatalf("op %d %+v: completions %v with history bounds %d/%d/%d — a shorter history finished earlier",
				n, op, dones, limit/2, limit, 2*limit)
		}
	}
}

// decodeTimelineOps turns fuzz bytes into operations, three bytes each:
// kind and retry count, then a signed step of the issue clock (so now is
// not monotonic) in units of 10µs.
func decodeTimelineOps(data []byte) []tlOp {
	var ops []tlOp
	var now time.Duration
	for ; len(data) >= 3; data = data[3:] {
		step := time.Duration(int16(uint16(data[1])<<8|uint16(data[2]))) * 10 * time.Microsecond
		now = max(0, now+step)
		ops = append(ops, tlOp{kind: data[0] & 3, retries: 1 + int(data[0]>>2&7), now: now})
	}
	return ops
}

// TestTimelineProperty is the seeded version of FuzzTimeline: random
// book/read/retry sequences around a slowly advancing clock, with work
// booked up to 20ms ahead of it and issue times that go backwards.
func TestTimelineProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := []int{2, 4, 8, 32}[seed%4]
		var ops []tlOp
		var clock time.Duration
		for i := 0; i < 3000; i++ {
			clock += time.Duration(rng.Intn(300)) * time.Microsecond
			op := tlOp{kind: uint8(rng.Intn(4)), retries: 1 + rng.Intn(4), now: clock}
			if rng.Intn(3) == 0 {
				op.now += time.Duration(rng.Intn(20000)) * time.Microsecond
			}
			if rng.Intn(4) > 0 {
				op.kind = 2 // mostly reads, as on a device
			}
			ops = append(ops, op)
		}
		runTimelineOps(t, limit, ops)
	}
}

func FuzzTimeline(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 100, 2, 0xff, 0x9c, 3, 0, 0, 2, 0, 0})
	f.Add([]byte{1, 0, 50, 2, 0xff, 0xce, 2, 0, 0, 0, 0, 0, 7, 0, 5, 0, 0xff, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runTimelineOps(t, 4, decodeTimelineOps(data))
	})
}

var benchSink time.Duration

// BenchmarkTimelineReadIdle: a read reaching an idle die whose history
// is full — the common case on the host read path.
func BenchmarkTimelineReadIdle(b *testing.B) {
	tl := newTimeline(maxSpans)
	now := time.Duration(0)
	for i := 0; i < 2*maxSpans; i++ {
		now = tl.book(now, tlE, kindErase) + tlW
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Microsecond
		benchSink = tl.read(now, tlR, tlW)
	}
}

// BenchmarkTimelineReadInsideProgramRun: every read suspends a program
// run (split, insert, slide the rest) that a 64-page flush tops up once
// in ~50 reads.
func BenchmarkTimelineReadInsideProgramRun(b *testing.B) {
	tl := newTimeline(maxSpans)
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tl.busyUntil()-now < 4*tlW {
			for k := 0; k < 64; k++ {
				tl.book(now, tlW, kindProgram)
			}
		}
		benchSink = tl.read(now, tlR, tlW)
		now += 250 * time.Microsecond
	}
}

// BenchmarkTimelineBookBehind32Spans: a program issued now that fits
// none of the gaps between 32 reservations ahead of it.
func BenchmarkTimelineBookBehind32Spans(b *testing.B) {
	tl := newTimeline(maxSpans)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 { // fresh reservations, 100µs gaps between them
			tl = timeline{buf: tl.buf, spans: tl.buf[:0], limit: maxSpans}
			for k := 0; k < 32; k++ {
				tl.book(time.Duration(k)*(tlE+100*time.Microsecond), tlE, kindErase)
			}
		}
		benchSink = tl.book(0, tlW, kindProgram)
	}
}
