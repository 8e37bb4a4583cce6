package ssd

import (
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
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
	victim, ok := d.pickVictim()
	if !ok {
		t.Fatal("no victim")
	}
	if d.bvc[victim] != 0 {
		t.Errorf("victim block %d has %d valid pages; a fully-invalid block exists", victim, d.bvc[victim])
	}
}

func TestGCDestinationContinuesAcrossRuns(t *testing.T) {
	cfg := testConfig()
	cfg.GCStreams = 2
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillAndChurn(t, d, 60000)
	// An open GC destination block must never be selected as a victim.
	for _, st := range d.streams {
		if !st.open {
			continue
		}
		if v, ok := d.pickVictim(); ok && v == st.block {
			t.Error("GC destination chosen as victim")
		}
	}
}

// TestGCInsideFlush drains the free pool so that allocBlockOn has to run
// GC in the middle of a flush, on a two-die geometry where the other
// flush lane holds programmed but not yet committed mappings at that
// moment. Every flushed mapping must still reach the scheme: flush and GC
// stage their batches in separate buffers, and a GC that reused the
// flush's would silently drop the pending ones.
func TestGCInsideFlush(t *testing.T) {
	cfg := testConfig()
	cfg.Flash.DiesPerChan = 2
	// The low watermark rounds down to zero blocks, so no GC runs after a
	// flush: the pool drains, and only allocation reclaims.
	cfg.GCLowWater = 0.5 / float64(cfg.Flash.Blocks())
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	pendingAtGC := 0
	d.SetCrashHook(func(point string) {
		if point != "gc.read" {
			return
		}
		for _, p := range d.flushPairs {
			if len(p) > 0 {
				pendingAtGC++
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
	if d.Stats().GCRuns == 0 || pendingAtGC == 0 {
		t.Fatalf("%d GC runs, %d with flush mappings pending: the scenario never ran GC inside a flush",
			d.Stats().GCRuns, pendingAtGC)
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
// GC run over victims that sit on sixteen distinct channels of an idle
// array must finish in a fraction of what the same victims cost one
// after another, and GCTime and the GC horizon must both be the run's
// latest completion. A regression to chaining victims (t = done) or to
// destinations that share a channel fails the span bound.
func TestGCRunChannelParallel(t *testing.T) {
	cfg := parallelGCConfig()
	fc := cfg.Flash
	d := newTestDevice(t, cfg, leaftl.New(0, fc.PageSize))
	ppb, units := fc.PagesPerBlock, fc.Units()

	// A sequential fill lays block b's worth of LPAs into the b-th block
	// allocated, and the allocator rotates channels, so the first sixteen
	// blocks cover the sixteen channels. Rewriting a quarter of each makes
	// exactly those the greedy policy's victims.
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
	// victim nets a quarter block, so four more free blocks take sixteen.
	start := max(d.now, d.flushDone) + time.Second
	run := recordReclaims(d)
	if err := d.runGC(start, len(d.free)+units/4, true); err != nil {
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

// TestGCRunInFlightWindow checks the staging bound runGC documents on a
// run several windows long: victim k is issued exactly when victim
// k − Units() has finished programming, so never more than Units()
// victims sit between issue and last program — and the run does fill
// the window.
func TestGCRunInFlightWindow(t *testing.T) {
	cfg := parallelGCConfig()
	units := cfg.Flash.Units()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	uniformChurn(t, d, 30000)

	start := max(d.now, d.gcHorizon, d.flushDone) + time.Second
	rec := recordReclaims(d)
	if err := d.runGC(start, len(d.free)+24, true); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	run := *rec
	if len(run) < 3*units {
		t.Fatalf("run reclaimed %d victims; need at least %d to exercise the window", len(run), 3*units)
	}
	for k, r := range run {
		want := start
		if k >= units {
			want = max(start, run[k-units].programmed)
		}
		if r.issued != want {
			t.Fatalf("victim %d issued at %v, want %v (when victim %d finished programming)", k, r.issued, want, k-units)
		}
		if r.programmed < r.issued || r.done < r.programmed {
			t.Fatalf("victim %d out of order: issued %v, programmed %v, done %v", k, r.issued, r.programmed, r.done)
		}
	}
	peak := 0
	for _, at := range run {
		inFlight := 0
		for _, r := range run {
			if r.issued <= at.issued && at.issued < r.programmed {
				inFlight++
			}
		}
		peak = max(peak, inFlight)
	}
	if peak > units {
		t.Errorf("%d victims in flight at once, bound is Units() = %d", peak, units)
	}
	if peak < units {
		t.Errorf("at most %d victims in flight; the run never filled its %d-victim window", peak, units)
	}
}

// TestNoProgramBeforeEraseCompletes audits NAND ordering over a GC-heavy
// churn: with victims in flight side by side and freed blocks handed
// straight back to flush and GC lanes, no page of a block may start
// programming before that block's latest erase has completed. The
// per-die busy horizons guarantee it; this is the guard that they keep
// doing so.
func TestNoProgramBeforeEraseCompletes(t *testing.T) {
	for _, dies := range []int{1, 2} {
		cfg := parallelGCConfig()
		cfg.Flash.DiesPerChan = dies
		cfg.GCStreams = 2
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
					t.Errorf("dies=%d: block %d programmed at %v, before its erase completed at %v", dies, b, start, end)
				}
			}
		})
		uniformChurn(t, d, 30000)
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if d.Stats().GCErases == 0 || reprogrammed == 0 {
			t.Fatalf("dies=%d: churn reused no erased block (GCErases %d): nothing audited", dies, d.Stats().GCErases)
		}
	}
}

// TestGCCrashPointsOncePerVictim: overlapping victims in time does not
// interleave them in the firmware's own order — each victim still passes
// gc.read, gc.programmed and gc.erased exactly once, in that order,
// before the next one starts.
func TestGCCrashPointsOncePerVictim(t *testing.T) {
	cfg := parallelGCConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	order := []string{"gc.read", "gc.programmed", "gc.erased"}
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
	if len(seen) != len(order)*victims {
		t.Fatalf("%d GC crash points fired for %d victims, want %d each", len(seen), victims, len(order))
	}
	for i, point := range seen {
		if want := order[i%len(order)]; point != want {
			t.Fatalf("crash point %d is %q, want %q (victim %d)", i, point, want, i/len(order))
		}
	}
}
