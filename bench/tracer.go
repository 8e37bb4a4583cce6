package main

import (
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
)

// Tracing is done from this directory alone: the replay loop opens a span
// around each device call, and a wrapper scheme that forwards to the real
// one opens a child span around each call the device makes into it. The
// layers below the scheme (core, plr, flash, metrics) cannot be wrapped
// from outside; the wrapper captures what reaches them so replayLayers can
// time them standalone.

// Span names; module names are the layer names.
const (
	spanRead = iota
	spanWrite
	spanTranslate
	spanCommit
	spanCommitGC
	spanNoteRead
	spanNoteExact
	spanMaintain
	spanKinds
)

var spanNames = [spanKinds]string{
	"ssd.read", "ssd.write",
	"leaftl.translate", "leaftl.commit", "leaftl.commit_gc",
	"leaftl.note_read", "leaftl.note_exact", "leaftl.maintain",
}

// span is one recorded interval on the host clock, in nanoseconds since
// the tracer was created. Spans of one request share its index; a scheme
// span's parent is the request span it ran under (-1 outside any request,
// such as the flush at the end of setup).
type span struct {
	Kind       uint8
	Req        int32
	Parent     int32
	Start, End int64
}

// aggregate sums every span of one kind, recorded or not.
type aggregate struct {
	Calls int64 `json:"calls"`
	Ns    int64 `json:"total_ns"`
	// Units is the work the calls carried: pages for requests, mapping
	// pairs for commits, one per call otherwise.
	Units int64 `json:"units"`
}

// tracer keeps spans in preallocated memory and writes them out when the
// run ends. It is the replay loop's observer during the traced sat phase.
type tracer struct {
	t0      time.Time
	spans   []span // the first spanRequests requests' spans
	dropped int64  // spans beyond the preallocated room
	agg     [spanKinds]aggregate

	active   bool  // between arm and disarm: the traced sat phase
	open     int32 // index of the open request span in spans, or -1
	req      int32 // index of the open request, or -1
	reqStart int64
	childNs  int64 // scheme time inside the open request
	selfNs   int64 // request time not spent in the scheme
	readNs   []int64
	writeNs  []int64
	levels   []uint16 // levels visited per Translate

	// Captures for the standalone layer replays, taken from device
	// creation on so the first batches are the prefill of every LPA.
	batches [][]addr.Mapping
	lpas    []addr.LPA
}

func newTracer(nSat int) *tracer {
	return &tracer{
		t0:      time.Now(),
		spans:   make([]span, 0, 16*spanRequests),
		open:    -1,
		req:     -1,
		readNs:  make([]int64, 0, nSat),
		writeNs: make([]int64, 0, nSat),
		levels:  make([]uint16, 0, 4*nSat),
		batches: make([][]addr.Mapping, 0, captureBatch),
		lpas:    make([]addr.LPA, 0, captureLPAs),
	}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) record(s span) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// begin and end implement observer: the request span.
func (t *tracer) begin(i int, r trace.Request) {
	t.req, t.childNs, t.open = int32(i), 0, -1
	t.reqStart = t.now()
	if i < spanRequests {
		t.open = t.record(span{Kind: requestKind(r), Req: t.req, Parent: -1, Start: t.reqStart})
	}
}

func (t *tracer) end(i int, r trace.Request, _, _ time.Duration) {
	end := t.now()
	dur := end - t.reqStart
	k := requestKind(r)
	t.agg[k].Calls++
	t.agg[k].Ns += dur
	t.agg[k].Units += int64(r.Pages)
	t.selfNs += dur - t.childNs
	if k == spanRead {
		t.readNs = append(t.readNs, dur)
	} else {
		t.writeNs = append(t.writeNs, dur)
	}
	if t.open >= 0 {
		t.spans[t.open].End = end
	}
	t.req, t.open = -1, -1
}

func requestKind(r trace.Request) uint8 {
	if r.Op == trace.OpRead {
		return spanRead
	}
	return spanWrite
}

// child records one scheme call that started at start.
func (t *tracer) child(kind uint8, start int64, units int) {
	if !t.active {
		return
	}
	end := t.now()
	t.agg[kind].Calls++
	t.agg[kind].Ns += end - start
	t.agg[kind].Units += int64(units)
	if t.req >= 0 {
		t.childNs += end - start
		if t.req < spanRequests {
			t.record(span{Kind: kind, Req: t.req, Parent: t.open, Start: start, End: end})
		}
	}
}

// start returns the clock for a scheme span, or 0 when not tracing.
func (t *tracer) start() int64 {
	if !t.active {
		return 0
	}
	return t.now()
}

func (t *tracer) sawTranslate(lpa addr.LPA, levels int) {
	if len(t.lpas) < cap(t.lpas) {
		t.lpas = append(t.lpas, lpa)
	}
	if t.active && len(t.levels) < cap(t.levels) {
		t.levels = append(t.levels, uint16(min(levels, 1<<16-1)))
	}
}

func (t *tracer) sawCommit(pairs []addr.Mapping) {
	if len(t.batches) < cap(t.batches) {
		t.batches = append(t.batches, append([]addr.Mapping(nil), pairs...))
	}
}

// schemeNs is the host time spent inside the scheme during the traced phase.
func (t *tracer) schemeNs() int64 {
	var ns int64
	for k := spanTranslate; k < spanKinds; k++ {
		ns += t.agg[k].Ns
	}
	return ns
}

// fullCaps is every optional capability the device looks for on a scheme,
// the two it finds by anonymous interface included.
type fullCaps interface {
	ftl.Journaled // GroupPaged and Scheme with it
	ftl.MissReporter
	ftl.GCRelearner
	ftl.ExactAuditor
	ftl.AdaptiveGamma // Gamma with it
	FeedbackEnabled() bool
	SetJournalCrashHook(func(string))
}

// tracedPlain wraps a scheme with no optional capability (DFTL, SFTL).
type tracedPlain struct {
	ftl.Scheme
	t *tracer
}

func (w *tracedPlain) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	s := w.t.start()
	tr, ok := w.Scheme.Translate(lpa)
	w.t.child(spanTranslate, s, 1)
	w.t.sawTranslate(lpa, tr.Levels)
	return tr, ok
}

func (w *tracedPlain) Commit(pairs []addr.Mapping) ftl.Cost {
	w.t.sawCommit(pairs)
	s := w.t.start()
	c := w.Scheme.Commit(pairs)
	w.t.child(spanCommit, s, len(pairs))
	return c
}

func (w *tracedPlain) Maintain(n uint64) ftl.Cost {
	s := w.t.start()
	c := w.Scheme.Maintain(n)
	w.t.child(spanMaintain, s, 1)
	return c
}

// tracedFull wraps a scheme with every optional capability (LeaFTL). The
// embedded interface forwards whatever is not timed, so the wrapper's
// method set is exactly the wrapped scheme's capability set.
type tracedFull struct {
	fullCaps
	t *tracer
}

func (w *tracedFull) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	s := w.t.start()
	tr, ok := w.fullCaps.Translate(lpa)
	w.t.child(spanTranslate, s, 1)
	w.t.sawTranslate(lpa, tr.Levels)
	return tr, ok
}

func (w *tracedFull) Commit(pairs []addr.Mapping) ftl.Cost {
	w.t.sawCommit(pairs)
	s := w.t.start()
	c := w.fullCaps.Commit(pairs)
	w.t.child(spanCommit, s, len(pairs))
	return c
}

func (w *tracedFull) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	w.t.sawCommit(pairs)
	s := w.t.start()
	c, n := w.fullCaps.CommitGC(pairs)
	w.t.child(spanCommitGC, s, len(pairs))
	return c, n
}

func (w *tracedFull) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) ftl.Cost {
	s := w.t.start()
	c := w.fullCaps.NoteRead(lpa, predicted, actual, approx, hintResolved)
	w.t.child(spanNoteRead, s, 1)
	return c
}

func (w *tracedFull) NoteExact(lpa addr.LPA) ftl.Cost {
	s := w.t.start()
	c := w.fullCaps.NoteExact(lpa)
	w.t.child(spanNoteExact, s, 1)
	return c
}

func (w *tracedFull) Maintain(n uint64) ftl.Cost {
	s := w.t.start()
	c := w.fullCaps.Maintain(n)
	w.t.child(spanMaintain, s, 1)
	return c
}

// capabilities names the optional interfaces s implements, in a fixed
// order, as the device would find them by type assertion.
func capabilities(s ftl.Scheme) []string {
	var caps []string
	add := func(ok bool, name string) {
		if ok {
			caps = append(caps, name)
		}
	}
	_, ok := s.(ftl.Gamma)
	add(ok, "Gamma")
	_, ok = s.(ftl.GroupPaged)
	add(ok, "GroupPaged")
	_, ok = s.(ftl.Journaled)
	add(ok, "Journaled")
	_, ok = s.(ftl.MissReporter)
	add(ok, "MissReporter")
	_, ok = s.(ftl.GCRelearner)
	add(ok, "GCRelearner")
	_, ok = s.(ftl.ExactAuditor)
	add(ok, "ExactAuditor")
	_, ok = s.(ftl.AdaptiveGamma)
	add(ok, "AdaptiveGamma")
	_, ok = s.(ftl.Concurrent)
	add(ok, "Concurrent")
	_, ok = s.(interface{ FeedbackEnabled() bool })
	add(ok, "FeedbackEnabled")
	_, ok = s.(interface{ SetJournalCrashHook(func(string)) })
	add(ok, "SetJournalCrashHook")
	return caps
}

// wrap returns s behind the tracing wrapper with the same capability set.
func (t *tracer) wrap(s ftl.Scheme) (ftl.Scheme, error) {
	if fc, ok := s.(fullCaps); ok {
		if _, conc := s.(ftl.Concurrent); !conc {
			return &tracedFull{fullCaps: fc, t: t}, nil
		}
	}
	if caps := capabilities(s); len(caps) > 0 {
		return nil, fmt.Errorf("no tracing wrapper for scheme %s with capabilities %v", s.Name(), caps)
	}
	return &tracedPlain{Scheme: s, t: t}, nil
}

// attributor is the replay loop's observer during the open-loop rungs: it
// tags each request by which Device.Stats counters moved during its call
// and sums latency by tag, so the shares add up to the whole.
type attributor struct {
	dev    *ssd.Device
	before ssd.Stats
	wait   time.Duration
	svc    [attrClasses]time.Duration
}

// Attribution classes of a request's service time.
const (
	attrPlain = iota
	attrGC
	attrFlush
	attrMapFault
	attrClasses
)

func (a *attributor) begin(int, trace.Request) { a.before = a.dev.Stats() }

func (a *attributor) end(_ int, _ trace.Request, wait, service time.Duration) {
	after := a.dev.Stats()
	class := attrPlain
	switch {
	case after.GCRuns != a.before.GCRuns || after.GCStall != a.before.GCStall:
		class = attrGC
	case after.FlushedBlocks != a.before.FlushedBlocks:
		class = attrFlush
	case after.MetaReads != a.before.MetaReads:
		class = attrMapFault
	}
	a.wait += wait
	a.svc[class] += service
}

// shares returns queue wait and each service class as shares of the
// summed latency; they add up to 1.
func (a *attributor) shares() (wait float64, svc [attrClasses]float64) {
	total := a.wait
	for _, s := range a.svc {
		total += s
	}
	for c, s := range a.svc {
		svc[c] = ratio(float64(s), float64(total))
	}
	return ratio(float64(a.wait), float64(total)), svc
}
