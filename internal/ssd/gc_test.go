package ssd

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// fillSequential writes the whole logical space once, in order.
func fillSequential(t *testing.T, d *Device) {
	t.Helper()
	for lpa := 0; lpa+8 <= d.LogicalPages(); lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
}

// fillAndChurn writes the whole logical space once, then rewrites a hot
// slice until GC must run.
func fillAndChurn(t *testing.T, d *Device, churn int) {
	t.Helper()
	fillSequential(t, d)
	logical := d.LogicalPages()
	rng := seededRand(t, 21)
	hot := logical / 4
	for i := 0; i < churn; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(hot)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestGCReclaimsAndPreservesData(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillAndChurn(t, d, 40000)

	st := d.Stats()
	if st.GCRuns == 0 || st.GCErases == 0 {
		t.Fatalf("GC never ran: %+v", st)
	}
	// The free pool must be back above the low watermark.
	low := int(cfg.GCLowWater * float64(cfg.Flash.Blocks()))
	if len(d.free) < low {
		t.Errorf("free blocks %d below low watermark %d after GC", len(d.free), low)
	}
	// Every logical page must still read back correctly (the device
	// verifies payload tokens internally).
	for lpa := 0; lpa < d.LogicalPages(); lpa += 7 {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("read %d after GC: %v", lpa, err)
		}
	}
}

func TestGCAccounting(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillAndChurn(t, d, 40000)

	// BVC consistency: per-block valid counts must equal the PVT bitmap.
	for b := 0; b < cfg.Flash.Blocks(); b++ {
		count := 0
		first := cfg.Flash.FirstPPA(flash.BlockID(b))
		for i := 0; i < cfg.Flash.PagesPerBlock; i++ {
			if d.valid[first+addr.PPA(i)] {
				count++
			}
		}
		if count != d.bvc[b] {
			t.Fatalf("block %d: BVC %d, PVT count %d", b, d.bvc[b], count)
		}
	}
	// Exactly one valid page per written LPA.
	validPages := 0
	for _, v := range d.valid {
		if v {
			validPages++
		}
	}
	written := 0
	for _, ppa := range d.truth {
		if ppa != addr.InvalidPPA {
			written++
		}
	}
	if validPages != written {
		t.Errorf("valid pages %d != written LPAs %d", validPages, written)
	}
	if d.WAF() <= 1.0 {
		t.Errorf("churned workload WAF = %v, want > 1 (GC moves)", d.WAF())
	}
}

func TestGCVictimSelectionPrefersInvalid(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	// Fill sequentially, then invalidate one block's worth entirely by
	// rewriting the same LPAs.
	ppb := cfg.Flash.PagesPerBlock
	for lpa := 0; lpa < 4*ppb; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for lpa := 0; lpa < ppb; lpa += 8 { // rewrite block 0's contents
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	victim, ok := d.victims.pickVictim()
	if !ok {
		t.Fatal("no victim")
	}
	if d.bvc[victim] != 0 {
		t.Errorf("victim block %d has %d valid pages; a fully-invalid block exists", victim, d.bvc[victim])
	}
}

// TestGCDestinationContinuesAcrossRuns: the GC destination block stays
// open across reclaim runs, and while open it is never a victim
// candidate.
func TestGCDestinationContinuesAcrossRuns(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillAndChurn(t, d, 60000)
	st := d.gcLane
	if !st.open {
		t.Fatal("churn left no GC destination open: nothing checked")
	}
	if d.victims.Has(st.block) {
		t.Errorf("open GC destination block %d is a victim candidate", st.block)
	}
}

// TestGCInsideFlush drains the free pool so that allocBlock has to run
// GC in the middle of a flush, after the flush has already programmed
// and committed some of its pages. Every flushed mapping must still
// reach the scheme: flush and GC stage their batches in separate
// buffers, and a GC that disturbed the flush's would silently drop
// mappings.
func TestGCInsideFlush(t *testing.T) {
	cfg := testConfig()
	// A flush fills two blocks, so the second allocation comes after the
	// first block's pages are programmed and committed.
	cfg.BufferPages = 2 * cfg.Flash.PagesPerBlock
	// The low watermark rounds down to zero blocks, so no GC runs after a
	// flush: the pool drains, and only allocation reclaims.
	cfg.GCLowWater = 0.5 / float64(cfg.Flash.Blocks())
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	midFlushGC := 0
	d.SetCrashHook(func(point string) {
		if point != "gc.read" {
			return
		}
		// Mid-flush, the insertion-order log still names the pages the
		// flush has programmed.
		for _, l := range d.bufOrder {
			if !d.buffered[l] {
				midFlushGC++
				break
			}
		}
	})

	// Rewriting the hot quarter in order leaves whole blocks stale, so a
	// victim frees its block without needing a GC destination block.
	fillSequential(t, d)
	hot := d.LogicalPages() / 4
	for pass := 0; pass < 6; pass++ {
		for lpa := 0; lpa < hot; lpa += 8 {
			if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCRuns == 0 || midFlushGC == 0 {
		t.Fatalf("%d GC runs, %d after the flush programmed pages: the scenario never ran GC inside a flush",
			d.Stats().GCRuns, midFlushGC)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for l, ppa := range d.truth {
		if ppa == addr.InvalidPPA {
			continue
		}
		if tr, ok := d.scheme.Translate(addr.LPA(l)); !ok || tr.PPA != ppa {
			t.Fatalf("LPA %d: scheme maps it to %d (ok=%v), flushed to %d: a mapping was never committed",
				l, tr.PPA, ok, ppa)
		}
	}
}

// reclaimRecord is one reclaimHook observation.
type reclaimRecord struct {
	block                    flash.BlockID
	issued, programmed, done time.Duration
}

// parallelGCConfig is the test device on the paper's channel count:
// 16 channels × 16 blocks × 64 pages.
func parallelGCConfig() Config {
	cfg := testConfig()
	cfg.Flash.Channels = 16
	return cfg
}

// uniformChurn fills the logical space and then overwrites uniformly at
// random, so GC victims everywhere hold a comparable share of valid
// pages and a reclaim run has real relocation work per victim.
func uniformChurn(t *testing.T, d *Device, writes int) {
	t.Helper()
	fillSequential(t, d)
	logical := d.LogicalPages()
	rng := seededRand(t, 31)
	for i := 0; i < writes; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(logical)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// recordReclaims installs a reclaimHook collecting every relocation.
func recordReclaims(d *Device) *[]reclaimRecord {
	var run []reclaimRecord
	d.reclaimHook = func(b flash.BlockID, issued, programmed, done time.Duration) {
		run = append(run, reclaimRecord{b, issued, programmed, done})
	}
	return &run
}

// TestGCRunChannelParallel is the gate of channel-parallel reclaim. One
// GC window over victims that sit on sixteen distinct channels of an
// idle array must finish in a fraction of what the same victims cost one
// after another, and GCTime and the GC horizon must both be the run's
// latest completion. A regression to chaining victims (t = done) or to
// destinations that share a channel fails the span bound.
func TestGCRunChannelParallel(t *testing.T) {
	cfg := parallelGCConfig()
	fc := cfg.Flash
	d := newTestDevice(t, cfg, leaftl.New(0, fc.PageSize))
	ppb, units := fc.PagesPerBlock, fc.Channels

	// A sequential fill lays block b's worth of LPAs into the b-th block
	// allocated, and the allocator rotates channels, so the first sixteen
	// blocks cover the sixteen channels. Rewriting a quarter of each makes
	// exactly those greedy GC's victims.
	fillSequential(t, d)
	for b := 0; b < units; b++ {
		if _, err := d.Write(addr.LPA(b*ppb), ppb/4); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCRuns != 0 {
		t.Fatalf("setup already ran GC: %+v", d.Stats())
	}

	// Start on a drained array so the run's span is all its own. Each
	// victim nets a quarter block, so four more free blocks take all
	// sixteen — a forced run: a best-effort one stops a block short of
	// draining every candidate.
	start := max(d.now, d.flushDone) + time.Second
	run := recordReclaims(d)
	if err := d.runGC(start, len(d.free)+units/4, false); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if len(*run) != units || st.GCErases != uint64(units) {
		t.Fatalf("run reclaimed %d victims (GCErases %d), want %d", len(*run), st.GCErases, units)
	}
	onChannel := make(map[int]bool)
	var last time.Duration
	for _, r := range *run {
		onChannel[fc.ChannelOfBlock(r.block)] = true
		if r.issued != start {
			t.Errorf("victim %d issued at %v, want the run's start %v: the window holds %d", r.block, r.issued, start, units)
		}
		last = max(last, r.done)
	}
	if len(onChannel) != fc.Channels {
		t.Fatalf("victims cover %d channels, want %d", len(onChannel), fc.Channels)
	}

	// One at a time, each victim's copy-out reads queue on its own die,
	// its programs on the destination's, then comes the erase.
	serial := time.Duration(st.GCPagesMoved)*(fc.ReadLatency+fc.WriteLatency) + time.Duration(units)*fc.EraseLatency
	span := last - start
	if span > serial/4 {
		t.Errorf("GC run of %d victims (%d pages) took %v; one at a time they cost %v — want at most a quarter on %d channels",
			units, st.GCPagesMoved, span, serial, fc.Channels)
	}
	if st.GCTime != span {
		t.Errorf("GCTime = %v, want the run's span %v (latest completion − start)", st.GCTime, span)
	}
	if d.gcHorizon != last {
		t.Errorf("gcHorizon = %v, want the run's latest completion %v", d.gcHorizon, last)
	}
}

// TestGCBestEffortStopsShortOfDraining: a watermark run whose target the
// victim index cannot reach stops one block short of draining it, so the
// fullest candidates — whose relocation would be nearly all copying —
// stay where they are. Sixteen blocks hold 1, 3, …, 31 stale pages (four
// blocks in all); the greedy run frees three blocks from the emptiest
// victims and leaves the rest.
func TestGCBestEffortStopsShortOfDraining(t *testing.T) {
	cfg := parallelGCConfig()
	ppb := cfg.Flash.PagesPerBlock
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillSequential(t, d)
	for b := 0; b < 16; b++ {
		if _, err := d.Write(addr.LPA(b*ppb), 2*b+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCRuns != 0 {
		t.Fatalf("setup already ran GC: %+v", d.Stats())
	}
	valid := make(map[flash.BlockID]int)
	for b := 0; b < cfg.Flash.Blocks(); b++ {
		if id := flash.BlockID(b); d.victims.Has(id) && d.bvc[b] < ppb {
			valid[id] = d.bvc[b]
		}
	}
	if len(valid) != 16 {
		t.Fatalf("setup left %d partly stale blocks, want 16", len(valid))
	}
	free := len(d.free)
	if got := d.reachableFree(); got != free+4 {
		t.Fatalf("reachableFree = %d, want %d", got, free+4)
	}

	run := recordReclaims(d)
	if err := d.runGC(max(d.now, d.flushDone), cfg.Flash.Blocks(), true); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(d.free) != free+3 {
		t.Fatalf("best-effort run left %d blocks free, want %d: one block short of draining %d", len(d.free), free+3, free+4)
	}
	fullest := 0
	for _, r := range *run {
		fullest = max(fullest, valid[r.block])
		delete(valid, r.block)
	}
	if len(valid) == 0 {
		t.Fatal("run drained every candidate")
	}
	for b, v := range valid {
		if v < fullest {
			t.Errorf("block %d (%d valid pages) left behind while a victim held %d", b, v, fullest)
		}
	}
}

// gcWindowRecord is one reclaim window as the tests observe it: how many
// victims and pooled pages it staged (read at the gc.read crash point),
// when it was issued and when its last relocation program completed
// (from reclaimHook).
type gcWindowRecord struct {
	victims, pages     int
	issued, programmed time.Duration
}

// recordWindows installs a crash hook and a reclaimHook that collect
// every reclaim window, checking that each victim of a window reports
// the window's issue and program-completion times.
func recordWindows(t *testing.T, d *Device) *[]gcWindowRecord {
	t.Helper()
	var wins []gcWindowRecord
	seen := 0
	d.SetCrashHook(func(point string) {
		if point == "gc.read" {
			wins = append(wins, gcWindowRecord{victims: len(d.gcVictims), pages: len(d.gcPages)})
			seen = 0
		}
	})
	d.reclaimHook = func(b flash.BlockID, issued, programmed, done time.Duration) {
		w := &wins[len(wins)-1]
		if seen == 0 {
			w.issued, w.programmed = issued, programmed
		} else if issued != w.issued || programmed != w.programmed {
			t.Errorf("window %d: victim %d reports issue %v / programmed %v, its window %v / %v",
				len(wins)-1, b, issued, programmed, w.issued, w.programmed)
		}
		if programmed < issued || done < programmed {
			t.Errorf("window %d: victim %d out of order: issued %v, programmed %v, done %v",
				len(wins)-1, b, issued, programmed, done)
		}
		seen++
	}
	return &wins
}

// TestGCRunInFlightWindow checks the staging bound runGC documents on a
// run several windows long: window w is issued exactly when window w − 2
// finished programming, so never more than two windows — at most
// 2 × Channels blocks of pages — sit between copy-out and last program,
// and the run does keep two windows in flight.
func TestGCRunInFlightWindow(t *testing.T) {
	cfg := parallelGCConfig()
	units, ppb := cfg.Flash.Channels, cfg.Flash.PagesPerBlock
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	uniformChurn(t, d, 30000)

	start := max(d.now, d.gcHorizon, d.flushDone) + time.Second
	rec := recordWindows(t, d)
	if err := d.runGC(start, len(d.free)+24, true); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	wins := *rec
	if len(wins) < 3 {
		t.Fatalf("run reclaimed %d windows; need at least 3 to exercise the overlap", len(wins))
	}
	for k, w := range wins {
		want := start
		if k >= 2 {
			want = max(start, wins[k-2].programmed)
		}
		if w.issued != want {
			t.Fatalf("window %d issued at %v, want %v (when window %d finished programming)", k, w.issued, want, k-2)
		}
		if w.victims < 1 || w.victims > units {
			t.Fatalf("window %d holds %d victims, want 1..Channels = %d", k, w.victims, units)
		}
	}
	peak, peakPages := 0, 0
	for _, at := range wins {
		inFlight, pages := 0, 0
		for _, w := range wins {
			if w.issued <= at.issued && at.issued < w.programmed {
				inFlight++
				pages += w.pages
			}
		}
		peak, peakPages = max(peak, inFlight), max(peakPages, pages)
	}
	if peakPages > 2*units*ppb {
		t.Errorf("%d pages staged at once, bound is 2 × Channels × PagesPerBlock = %d", peakPages, 2*units*ppb)
	}
	if peak > 2 {
		t.Errorf("%d windows in flight at once, bound is 2", peak)
	}
	if peak < 2 {
		t.Errorf("at most %d window in flight; the run never overlapped two", peak)
	}
}

// gcBatchRecorder is a LeaFTL scheme that keeps a copy of every
// relocation batch the device commits through CommitGC.
type gcBatchRecorder struct {
	*leaftl.Scheme
	batches [][]addr.Mapping
}

func (r *gcBatchRecorder) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	r.batches = append(r.batches, slices.Clone(pairs))
	return r.Scheme.CommitGC(pairs)
}

// TestGCGathersGroups checks what a reclaim window is for: after one
// window of several victims, the relocated pages of every touched
// mapping group form a single ascending run in each destination block —
// consecutive PPAs holding ascending LPAs — instead of one short run per
// victim that held some of the group's pages. Every relocation batch the
// scheme re-learns from is an ascending LPA run onto consecutive PPAs.
func TestGCGathersGroups(t *testing.T) {
	cfg := parallelGCConfig()
	rec := &gcBatchRecorder{Scheme: leaftl.New(4, cfg.Flash.PageSize, leaftl.WithExactBitmap())}
	d := newTestDevice(t, cfg, rec)
	uniformChurn(t, d, 30000)

	rec.batches = nil
	movedBefore := d.Stats().GCPagesMoved
	windows, victims := 0, 0
	d.SetCrashHook(func(point string) {
		if point == "gc.read" {
			windows++
			victims += len(d.gcVictims)
		}
	})
	start := max(d.now, d.gcHorizon, d.flushDone) + time.Second
	if err := d.runGC(start, len(d.free)+2, true); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	type groupBlock struct {
		group addr.GroupID
		block flash.BlockID
	}
	runs := make(map[groupBlock][]addr.Mapping)
	moved := 0
	for i, b := range rec.batches {
		for k := 1; k < len(b); k++ {
			if b[k].LPA <= b[k-1].LPA || b[k].PPA != b[k-1].PPA+1 {
				t.Fatalf("batch %d: pair %d (%d→%d) does not continue %d→%d as an ascending run onto consecutive PPAs",
					i, k, b[k].LPA, b[k].PPA, b[k-1].LPA, b[k-1].PPA)
			}
		}
		for _, m := range b {
			key := groupBlock{addr.Group(m.LPA), cfg.Flash.BlockOf(m.PPA)}
			runs[key] = append(runs[key], m)
			moved++
		}
	}
	if want := d.Stats().GCPagesMoved - movedBefore; moved == 0 || uint64(moved) != want {
		t.Fatalf("batches hold %d relocated pages, device moved %d", moved, want)
	}
	for key, run := range runs {
		slices.SortFunc(run, func(a, b addr.Mapping) int { return cmp.Compare(a.PPA, b.PPA) })
		for k := 1; k < len(run); k++ {
			if run[k].LPA <= run[k-1].LPA || run[k].PPA != run[k-1].PPA+1 {
				t.Fatalf("group %d in destination block %d: pages %d→%d and %d→%d break its run: the group was not gathered",
					key.group, key.block, run[k-1].LPA, run[k-1].PPA, run[k].LPA, run[k].PPA)
			}
		}
	}
	if windows != 1 || victims < 4 {
		t.Fatalf("run reclaimed %d victims in %d windows; the check needs one window of at least 4", victims, windows)
	}
}

// TestGCCrashBetweenWindowErases kills the device after the first erase
// of a window that holds several victims: the pool is programmed and
// committed, some victims are erased and the rest still hold their stale
// copies. Recovery must keep the relocated copies (newer write sequence)
// and every page must read back its pre-crash data; only the write
// buffer's contents may be lost.
func TestGCCrashBetweenWindowErases(t *testing.T) {
	cfg := parallelGCConfig()
	newScheme := func() ftl.Scheme {
		return leaftl.New(4, cfg.Flash.PageSize, leaftl.WithExactBitmap(), leaftl.WithCompactEvery(2000))
	}
	d := newTestDevice(t, cfg, newScheme())
	type crash struct{}
	erased := 0
	var tokens []uint64
	var buffered []addr.LPA
	d.SetCrashHook(func(point string) {
		switch point {
		case "gc.read":
			erased = 0
		case "gc.erased":
			erased++
			if erased == 1 && len(d.gcVictims) >= 2 {
				tokens, _ = d.TruthSnapshot()
				buffered = d.BufferedLPAs()
				panic(crash{})
			}
		}
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crash); !ok {
					panic(r)
				}
			}
		}()
		uniformChurn(t, d, 60000)
	}()
	d.SetCrashHook(nil)
	if tokens == nil {
		t.Fatal("churn finished without a window of two or more victims")
	}

	if _, err := d.Recover(newScheme()); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	mayLose := make(map[addr.LPA]bool, len(buffered))
	for _, l := range buffered {
		mayLose[l] = true
	}
	after, _ := d.TruthSnapshot()
	for l, tok := range tokens {
		lpa := addr.LPA(l)
		if tok == 0 || mayLose[lpa] {
			continue
		}
		if after[l] != tok {
			t.Fatalf("LPA %d recovered token %#x, held %#x before the crash", l, after[l], tok)
		}
		if _, err := d.Read(lpa, 1); err != nil {
			t.Fatalf("read of LPA %d after recovery: %v", l, err)
		}
	}
}

// TestNoProgramBeforeEraseCompletes audits NAND ordering over a GC-heavy
// churn: with victims in flight side by side and freed blocks handed
// straight back to flush and GC lanes, no page of a block may start
// programming before that block's latest erase has completed. The
// per-die busy horizons guarantee it; this is the guard that they keep
// doing so.
func TestNoProgramBeforeEraseCompletes(t *testing.T) {
	cfg := parallelGCConfig()
	d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
	erased := make(map[flash.BlockID]time.Duration)
	reprogrammed := 0
	d.arr.Observe(func(b flash.BlockID, erase bool, start, done time.Duration) {
		if erase {
			erased[b] = done
			return
		}
		if end, ok := erased[b]; ok {
			reprogrammed++
			if start < end {
				t.Errorf("block %d programmed at %v, before its erase completed at %v", b, start, end)
			}
		}
	})
	uniformChurn(t, d, 30000)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().GCErases == 0 || reprogrammed == 0 {
		t.Fatalf("churn reused no erased block (GCErases %d): nothing audited", d.Stats().GCErases)
	}
}

// TestGCCrashPointsOncePerVictim: overlapping windows in time does not
// interleave them in the firmware's own order — each window passes
// gc.read and gc.programmed once, then gc.erased once per victim, before
// the next window starts.
func TestGCCrashPointsOncePerVictim(t *testing.T) {
	cfg := parallelGCConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	var seen []string
	d.SetCrashHook(func(point string) {
		if strings.HasPrefix(point, "gc.") {
			seen = append(seen, point)
		}
	})
	rec := recordReclaims(d)
	uniformChurn(t, d, 30000)
	victims := len(*rec)
	if victims == 0 || uint64(victims) != d.Stats().GCErases {
		t.Fatalf("%d victims relocated, GCErases = %d", victims, d.Stats().GCErases)
	}
	windows, erased, widest := 0, 0, 0
	for i := 0; i < len(seen); {
		if seen[i] != "gc.read" || i+1 >= len(seen) || seen[i+1] != "gc.programmed" {
			t.Fatalf("crash point %d starts window %d with %q, want gc.read then gc.programmed", i, windows, seen[i])
		}
		i += 2
		n := 0
		for ; i < len(seen) && seen[i] == "gc.erased"; i++ {
			n++
		}
		if n == 0 {
			t.Fatalf("window %d erased no victim", windows)
		}
		windows++
		erased += n
		widest = max(widest, n)
	}
	if erased != victims {
		t.Fatalf("gc.erased fired %d times for %d victims", erased, victims)
	}
	if widest < 2 {
		t.Fatalf("%d windows of %d victims never gathered two victims into one window", windows, victims)
	}
}

// TestSortByLPA checks the GC pool's radix sort against a comparison
// sort: pools of distinct LPAs, narrow ones whose high bytes every page
// shares and wide ones, keep each page's token beside its LPA.
func TestSortByLPA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tmp []movedPage
	for _, tc := range []struct{ n, span int }{{0, 1}, {1, 1}, {2, 4}, {100, 256}, {1000, 1 << 12}, {3000, 1 << 31}} {
		seen := make(map[addr.LPA]bool, tc.n)
		pages := make([]movedPage, 0, tc.n)
		for len(pages) < tc.n {
			lpa := addr.LPA(rng.Intn(tc.span))
			if !seen[lpa] {
				seen[lpa] = true
				pages = append(pages, movedPage{lpa: lpa, tok: rng.Uint64()})
			}
		}
		want := slices.Clone(pages)
		slices.SortFunc(want, func(a, b movedPage) int { return cmp.Compare(a.lpa, b.lpa) })
		tmp = sortByLPA(pages, tmp)
		if !slices.Equal(pages, want) {
			t.Errorf("n=%d span=%d: pool not in LPA order", tc.n, tc.span)
		}
	}
}
