package flash

import (
	"fmt"
	"time"
)

// spanKind says what occupies a die during a span.
type spanKind uint8

const (
	kindProgram spanKind = iota
	kindErase
	kindRead
)

// span is one busy interval [start, end) of a die.
type span struct {
	start, end time.Duration
	kind       spanKind
}

// maxSpans bounds the history a die keeps (see timeline.trim). It is a
// constant of the model, not a knob: on the benchmark's zipf-read 64
// gives the simulated numbers of an unbounded list in every digit (at
// 14× its host speed), while 16 retires spans still in use and moves
// the read p999 from 8 to 193 ms.
const maxSpans = 64

// timeline is one die's schedule: sorted, non-overlapping busy spans
// with touching spans of one kind merged, so a program burst is one
// span however many pages it holds. Work may be booked at any future
// time and keeps its slot; the idle gaps in front of it stay usable.
//
// History is bounded by retiring the oldest spans into floor: nothing
// starts before floor, so forgetting a span can only ever make a later
// operation start later than it would have, never earlier. The oldest
// spans are the ones the device's clock has passed; with maxSpans of
// them kept, an operation issued at the current time still sees every
// gap it could use.
type timeline struct {
	buf    []span        // preallocated storage; never grows
	spans  []span        // the live window of buf
	limit  int           // spans kept across operations
	floor  time.Duration // end of the retired history
	booked time.Duration // Σ latency ever placed
	pruned time.Duration // Σ length of retired spans
}

func newTimeline(limit int) timeline {
	// One operation adds at most two spans (a read splitting a program
	// run) before the next one trims; the second half of buf is what lets
	// trim retire spans by sliding the window instead of moving them.
	buf := make([]span, 2*limit+2)
	return timeline{buf: buf, spans: buf[:0], limit: limit}
}

// trim retires the oldest spans beyond the limit and leaves room for
// the two spans an operation may add. Retiring slides the window along
// buf; only when it reaches the end are the live spans moved back to the
// front, once per limit insertions.
func (tl *timeline) trim() {
	if n := len(tl.spans) - tl.limit; n > 0 {
		for _, s := range tl.spans[:n] {
			tl.pruned += s.end - s.start
		}
		tl.floor = tl.spans[n-1].end
		tl.spans = tl.spans[n:]
	}
	if cap(tl.spans)-len(tl.spans) < 2 {
		tl.spans = tl.buf[:copy(tl.buf, tl.spans)]
	}
}

// find returns the index of the first span ending after t: the span
// holding t, or else the next one to start.
func (tl *timeline) find(t time.Duration) int {
	lo, hi := 0, len(tl.spans)
	if hi == 0 || tl.spans[hi-1].end <= t {
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tl.spans[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert puts s at index i; the caller keeps the order.
func (tl *timeline) insert(i int, s span) {
	tl.spans = append(tl.spans, span{})
	copy(tl.spans[i+1:], tl.spans[i:])
	tl.spans[i] = s
}

// place occupies [t, t+latency) at index i (everything before i has
// ended by t), then slides later whatever it overlaps.
func (tl *timeline) place(i int, t, latency time.Duration, kind spanKind) time.Duration {
	tl.booked += latency
	if i > 0 && tl.spans[i-1].end == t && tl.spans[i-1].kind == kind {
		tl.spans[i-1].end += latency
	} else {
		tl.insert(i, span{t, t + latency, kind})
		i++
	}
	tl.settle(i)
	return t + latency
}

// settle restores the invariants after spans[i-1] grew or appeared:
// each following span it now overlaps slides later by just the overlap,
// pushing its own successors in turn, and spans of one kind that come to
// touch are merged.
func (tl *timeline) settle(i int) {
	w := i
	for j := i; j < len(tl.spans); j++ {
		s, prev := tl.spans[j], &tl.spans[w-1]
		switch d := prev.end - s.start; {
		case d > 0:
			s.start, s.end = s.start+d, s.end+d
		case d < 0 && w == j:
			return // a gap remains and nothing before it moved
		}
		if s.start == prev.end && s.kind == prev.kind {
			prev.end = s.end
			continue
		}
		tl.spans[w] = s
		w++
	}
	tl.spans = tl.spans[:w]
}

// book places a program or erase in the earliest idle gap at or after
// now that fits it whole. With nothing booked ahead that is the plain
// queue: max(now, end of the last span) + latency.
func (tl *timeline) book(now, latency time.Duration, kind spanKind) time.Duration {
	tl.trim()
	t := max(now, tl.floor)
	i := tl.find(t)
	for ; i < len(tl.spans) && tl.spans[i].start-t < latency; i++ {
		t = max(t, tl.spans[i].end)
	}
	return tl.place(i, t, latency, kind)
}

// read places a page read issued at now. It runs at once in an idle gap
// and waits out an erase or another read; inside a program run it waits
// at most one program (tPROG) and then suspends the run, and having
// waited it goes ahead of a program run that has not started. It does
// not need the gap to fit: whatever is booked behind the instant it
// starts slides later (settle), by at most tR.
func (tl *timeline) read(now, tR, tPROG time.Duration) time.Duration {
	tl.trim()
	t := max(now, tl.floor)
	i := tl.find(t)
	for ; i < len(tl.spans) && tl.spans[i].start <= t; i++ {
		s := &tl.spans[i]
		if s.kind == kindProgram {
			if s.start == t && t > now {
				break
			}
			if s.end-t > tPROG {
				t += tPROG
				rest := span{t, s.end, kindProgram}
				s.end = t
				i++
				tl.insert(i, rest)
				break
			}
		}
		t = s.end
	}
	return tl.place(i, t, tR, kindRead)
}

// extend lengthens the read that completed at done by extra (ECC retry
// rounds re-sense the page where the first attempt finished). It must
// follow that read directly, before anything else touches the die. Reads
// booked right behind it share its span and slide with everything else.
func (tl *timeline) extend(done, extra time.Duration) time.Duration {
	i := tl.find(done - 1)
	if i == len(tl.spans) || tl.spans[i].start >= done || tl.spans[i].kind != kindRead {
		panic(fmt.Sprintf("flash: no read ends at %v to extend", done))
	}
	tl.spans[i].end += extra
	tl.booked += extra
	tl.settle(i + 1)
	return done + extra
}

// check audits the timeline: spans well-formed, sorted, disjoint, merged
// and not before the floor; no more of them than one operation can
// leave; and every booked nanosecond either on the list or retired — no
// die time lost, none double-booked.
func (tl *timeline) check() error {
	if len(tl.spans) > tl.limit+2 {
		return fmt.Errorf("%d spans, limit %d", len(tl.spans), tl.limit)
	}
	end, held := tl.floor, tl.pruned
	for i, s := range tl.spans {
		switch {
		case s.end <= s.start:
			return fmt.Errorf("span %d [%v, %v) is empty", i, s.start, s.end)
		case s.start < end:
			return fmt.Errorf("span %d starts at %v, before %v (previous end or floor)", i, s.start, end)
		case i > 0 && s.start == end && s.kind == tl.spans[i-1].kind:
			return fmt.Errorf("span %d touches span %d of the same kind", i, i-1)
		}
		end, held = s.end, held+s.end-s.start
	}
	if held != tl.booked {
		return fmt.Errorf("spans hold %v (of it %v retired), booked %v", held, tl.pruned, tl.booked)
	}
	return nil
}
