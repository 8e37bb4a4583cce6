// Package ssd simulates the SSD the paper evaluates on: flash array plus
// controller machinery — write data buffer with sorted flushes (§3.3),
// DRAM split between mapping structures and an LRU data cache (§4.2),
// greedy garbage collection and wear leveling (§3.6), OOB-verified reads
// with misprediction recovery (§3.5), and crash recovery (§3.8).
//
// Host requests are issued at a start time: Read and Write start at the
// device clock, ReadAt and WriteAt at a host queue's own clock
// (trace.ReplayIssued). Background flash traffic (flushes, GC) occupies
// channels so later reads queue behind it, and the clock is the merged
// completion horizon of everything applied so far. This substitutes
// WiscSim's event engine with a per-channel timeline (docs/ARCHITECTURE.md,
// "Simulation clock").
package ssd

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/metrics"
)

// Device is one simulated SSD with a pluggable translation scheme.
type Device struct {
	cfg    Config
	arr    *flash.Array
	scheme ftl.Scheme
	gamma  int // scheme's error bound (0 for exact schemes)

	logicalPages int

	// Simulator ground truth, used for bookkeeping (PVT/BVC updates, GC
	// victim contents) and integrity checking — never for performance
	// accounting, which flows through the scheme and OOB reads.
	truth []addr.PPA
	token []uint64 // expected payload per LPA

	valid []bool // PVT: per-PPA validity bitmap (Figure 3 structure 4)
	bvc   []int  // BVC: per-block valid-page count (structure 3)
	// free is the free pool in the order blocks were freed (oldest first);
	// nextChan is the channel takeFree tries first.
	free     []flash.BlockID
	nextChan int
	isFree   []bool
	blockSeq []uint64 // allocation sequence per block, for recovery order
	nextSeq  uint64

	// Write data buffer (§3.3) and data cache. buffered[lpa] marks an LPA
	// whose newest data sits in the buffer; its payload is token[lpa].
	// bufOrder lists the buffered LPAs in first-insertion order, so an
	// unsorted flush (SortBuffer off) lays pages out deterministically,
	// and its length is the buffer's occupancy. Mid-flush it still names
	// the pages already programmed until compactBufOrder runs.
	buffered   []bool
	bufOrder   []addr.LPA
	cache      *ftl.ByteLRU[addr.LPA, uint64]
	mapBudget  int
	writeStamp uint64

	// Staging reused from call to call, so a warmed device's request path
	// does not allocate: the flush's LPA run and pending mappings; the GC
	// window's victims, pooled pages, the pool sort's second buffer and
	// pending mappings. Flush and GC keep separate buffers because
	// allocBlock can run GC in the middle of a flush.
	flushLPAs  []addr.LPA
	flushPairs []addr.Mapping
	gcVictims  []flash.BlockID
	gcPages    []movedPage
	gcSort     []movedPage
	gcPairs    []addr.Mapping

	// Garbage collection machinery: the incremental valid-count index
	// greedy victim selection runs over, and the open GC destination
	// block.
	victims *VictimIndex
	gcLane  destLane
	// flushLane is the open flush destination block. A block-granularity
	// flush fills whole blocks and seals them; only a program failure,
	// which burns a page and moves the rest of the run to a fresh block,
	// leaves the lane open across flushes.
	flushLane destLane

	// Reliability state: bad marks blocks retired (or sealed awaiting
	// retirement) after program/erase failures — a persisted bad-block
	// table on real parts, so it survives crashes; lost marks LPAs whose
	// only copy was destroyed by uncorrectable errors (reads return
	// *UECCError until the host rewrites them); scrubPend/scrubSet queue
	// blocks past their disturb/retention thresholds for read-reclaim.
	bad       []bool
	lost      []bool
	scrubPend []flash.BlockID
	scrubSet  []bool
	crashHook func(string)

	// flushDone is when the last flush's slowest program completes; the
	// next flush stalls behind it (write back-pressure: the host cannot
	// outrun the flash's program bandwidth indefinitely). gcHorizon is
	// the same horizon for background relocation (reclaim is its only
	// writer), kept separate so stalls can be attributed to GC in the
	// stats.
	flushDone time.Duration
	gcHorizon time.Duration
	// reclaimHook, set by tests only, observes every relocated block:
	// when its window was issued, when the window's last relocation
	// program completed and when the block's erase (or retirement) did.
	reclaimHook func(b flash.BlockID, issued, programmed, done time.Duration)

	now   time.Duration
	stats Stats

	readLat   *metrics.Histogram
	writeLat  *metrics.Histogram
	flashBase flash.Stats // snapshot at last ResetMetrics, for WAF deltas
}

// New builds a device. The scheme's DRAM budget is derived from cfg.Mode
// before any traffic flows.
func New(cfg Config, scheme ftl.Scheme) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arr, err := flash.NewArray(cfg.Flash)
	if err != nil {
		return nil, err
	}
	gamma := schemeGamma(scheme)
	if 2*gamma+1 > cfg.Flash.OOBEntries() {
		return nil, fmt.Errorf("ssd: gamma %d needs %d OOB entries, flash provides %d (§3.5)",
			gamma, 2*gamma+1, cfg.Flash.OOBEntries())
	}

	d := &Device{
		cfg:          cfg,
		arr:          arr,
		scheme:       scheme,
		gamma:        gamma,
		logicalPages: cfg.LogicalPages(),
		truth:        make([]addr.PPA, cfg.LogicalPages()),
		token:        make([]uint64, cfg.LogicalPages()),
		valid:        make([]bool, cfg.Flash.TotalPages()),
		bvc:          make([]int, cfg.Flash.Blocks()),
		isFree:       make([]bool, cfg.Flash.Blocks()),
		blockSeq:     make([]uint64, cfg.Flash.Blocks()),
		buffered:     make([]bool, cfg.LogicalPages()),
		victims:      newVictimIndex(cfg.Flash.Blocks(), cfg.Flash.PagesPerBlock),
		bad:          make([]bool, cfg.Flash.Blocks()),
		lost:         make([]bool, cfg.LogicalPages()),
		scrubSet:     make([]bool, cfg.Flash.Blocks()),
		readLat:      metrics.NewHistogram(),
		writeLat:     metrics.NewHistogram(),
	}
	for i := range d.truth {
		d.truth[i] = addr.InvalidPPA
	}
	for b := 0; b < cfg.Flash.Blocks(); b++ {
		d.free = append(d.free, flash.BlockID(b))
		d.isFree[b] = true
	}

	// DRAM split (§4.2): the write buffer is pinned; the mapping budget
	// depends on the mode; the data cache takes the rest and is resized
	// as the mapping grows.
	d.mapBudget = int(cfg.DRAMBytes - cfg.BufferBytes())
	if cfg.Mode == MappingCapped {
		d.mapBudget = min(d.mapBudget, int(float64(cfg.DRAMBytes)*mappingCapFraction))
	}
	scheme.SetBudget(d.mapBudget)
	d.wireJournal(scheme)
	d.cache = ftl.NewByteLRU[addr.LPA, uint64](0)
	d.resizeCache()
	return d, nil
}

// schemeGamma returns the error bound γ the read path verifies a
// scheme's answers within (ftl.Gamma; 0 without one). New and Recover
// both bind a scheme through it.
func schemeGamma(scheme ftl.Scheme) int {
	if g, ok := scheme.(ftl.Gamma); ok {
		return g.Gamma()
	}
	return 0
}

// wireJournal sizes a journaling scheme's metadata journal from the
// flash geometry — the footprint cap defaults to half the over-provisioned
// capacity, where translation blocks live, but at least one block, so a
// device with next to no over-provisioning still has a journal
// (CheckInvariants reports a record persisted beyond that capacity) —
// and routes its crash hooks through the device's crash-point machinery
// so torture tests can kill the device mid-journal-GC.
func (d *Device) wireJournal(scheme ftl.Scheme) {
	j, ok := scheme.(ftl.Journaled)
	if !ok {
		return
	}
	ppb, maxPages := d.cfg.Flash.PagesPerBlock, d.cfg.JournalPages
	if maxPages <= 0 {
		maxPages = max((d.cfg.Flash.TotalPages()-d.logicalPages)/2, ppb)
	}
	j.ConfigureJournal(ppb, maxPages)
	if h, ok := scheme.(interface{ SetJournalCrashHook(func(string)) }); ok {
		h.SetJournalCrashHook(func(point string) { d.crashPoint(point) })
	}
}

// Scheme returns the device's translation scheme.
func (d *Device) Scheme() ftl.Scheme { return d.scheme }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// FlashStats returns raw flash operation counters.
func (d *Device) FlashStats() flash.Stats { return d.arr.Stats() }

// Now returns the simulated clock: the latest completion of any request
// applied so far, or a later idle time AdvanceTo moved it to.
func (d *Device) Now() time.Duration { return d.now }

// AdvanceTo moves the virtual clock forward to t, modeling a host idle
// gap (open-loop replay calls it between request arrivals). Background
// flash work keeps its own completion horizon, so a flush issued before
// the gap is simply found finished after it. Moving backward is a no-op:
// the clock is monotonic.
func (d *Device) AdvanceTo(t time.Duration) {
	if t > d.now {
		d.now = t
	}
}

// ReadLatency returns the host read latency histogram.
func (d *Device) ReadLatency() *metrics.Histogram { return d.readLat }

// WriteLatency returns the host write latency histogram.
func (d *Device) WriteLatency() *metrics.Histogram { return d.writeLat }

// WAF returns the write amplification factor since the last
// ResetMetrics (Figure 25).
func (d *Device) WAF() float64 {
	return d.stats.WAF(d.arr.Stats().PageWrites - d.flashBase.PageWrites)
}

// ResetMetrics zeroes the host-visible counters and latency histograms,
// snapshotting flash counters so WAF measures the steady state after a
// warmup phase (§4.1 warms the SSD before measuring).
func (d *Device) ResetMetrics() {
	d.stats = Stats{}
	d.readLat = metrics.NewHistogram()
	d.writeLat = metrics.NewHistogram()
	d.flashBase = d.arr.Stats()
}

// LogicalPages returns the host-visible capacity in pages.
func (d *Device) LogicalPages() int { return d.logicalPages }

// resizeCache gives the data cache whatever DRAM the mapping is not
// using. It is recomputed after every flush and every read: demand-paged
// schemes grow and shrink their resident mapping state on both paths, and
// the data cache must track the scheme's actual MemoryBytes over time
// rather than its size at construction.
func (d *Device) resizeCache() {
	d.cache.Resize(max(0, int(d.cfg.DRAMBytes-d.cfg.BufferBytes())-d.scheme.MemoryBytes()))
}

// Read performs a host read of n pages starting at lpa and returns its
// latency. Pages are issued concurrently (per-channel queueing decides
// actual overlap), the request completes when the slowest page does.
func (d *Device) Read(lpa addr.LPA, n int) (time.Duration, error) {
	return d.ReadAt(lpa, n, d.now)
}

// ReadAt is Read issued at an explicit start time, for issue-time
// replays whose host queues keep their own clocks (trace.ReplayIssued):
// the request's flash traffic is timed from start, and the device clock
// only advances to the completion when it is ahead of everything already
// applied (the clock is the merged completion horizon, never rolled
// back). State changes depend only on apply order, not on start, so
// replays that preserve submission order are bit-identical regardless of
// how request times interleave.
func (d *Device) ReadAt(lpa addr.LPA, n int, start time.Duration) (time.Duration, error) {
	if err := d.checkRange(lpa, n); err != nil {
		return 0, err
	}
	d.stats.HostReadReqs++
	metaBefore := d.stats.MetaReads + d.stats.MetaWrites
	end := start + cacheHitLatency
	// An uncorrectable page fails the request, not its other pages: they
	// are still served and counted, and the first such page's error is
	// returned once the request completes. Any other error is a fault of
	// the simulator and returns at once.
	var uecc *UECCError
	for i := 0; i < n; i++ {
		done, err := d.readPage(lpa+addr.LPA(i), start)
		if err != nil {
			u, ok := err.(*UECCError)
			if !ok {
				return 0, err
			}
			if uecc == nil {
				uecc = u
			}
			continue
		}
		if done > end {
			end = done
		}
	}
	lat := end - start
	if end > d.now {
		d.now = end
	}
	if uecc == nil {
		d.readLat.Observe(lat)
	}
	// Reads tick disturb counters; relocate whatever crossed the scrub
	// threshold before acknowledging (the relocation itself runs in the
	// background on the GC horizon).
	if len(d.scrubPend) > 0 {
		if err := d.drainScrub(end); err != nil {
			return 0, err
		}
	}
	// A translation that charged meta traffic loaded or evicted mapping
	// state; give the data cache whatever DRAM that freed or took. Other
	// reads change nothing, so the hot path skips the resize.
	if d.stats.MetaReads+d.stats.MetaWrites != metaBefore {
		d.resizeCache()
	}
	if uecc != nil {
		return 0, uecc
	}
	return lat, nil
}

// readPage serves one page read issued at time t; returns completion.
func (d *Device) readPage(lpa addr.LPA, t time.Duration) (time.Duration, error) {
	d.stats.HostPagesRead++

	if d.lost[lpa] {
		// The LPA's only copy was destroyed by an uncorrectable error;
		// the host keeps getting the I/O error until it rewrites.
		d.stats.HostUECCs++
		return 0, &UECCError{LPA: lpa, PPA: addr.InvalidPPA}
	}
	if d.buffered[lpa] {
		d.stats.BufferHits++
		return t + cacheHitLatency, nil
	}
	if tok, ok := d.cache.Get(lpa); ok {
		d.stats.CacheHits++
		if tok != d.token[lpa] {
			return 0, fmt.Errorf("ssd: cache corruption at LPA %d", lpa)
		}
		return t + cacheHitLatency, nil
	}

	tr, ok := d.scheme.Translate(lpa)
	t = d.chargeMeta(tr.Cost, t)
	if !ok {
		// Never written: a real drive returns zeroes without touching
		// flash. Cross-check against ground truth.
		if d.truth[lpa] != addr.InvalidPPA {
			return 0, fmt.Errorf("ssd: scheme %s lost mapping for LPA %d", d.scheme.Name(), lpa)
		}
		d.stats.UnmappedReads++
		return t + cacheHitLatency, nil
	}
	if tr.Approx {
		d.stats.ApproxReads++
	}
	d.stats.CacheMisses++

	want := d.truth[lpa]
	if want == addr.InvalidPPA {
		return 0, fmt.Errorf("ssd: scheme %s fabricated mapping for unwritten LPA %d", d.scheme.Name(), lpa)
	}

	var tok uint64
	switch {
	case tr.PPA == want:
		// Correct prediction: one flash read.
		var err error
		tok, t, err = d.verifiedRead(want, lpa, !tr.Approx, t)
		if err != nil {
			return 0, err
		}
	case !tr.Approx:
		return 0, fmt.Errorf("ssd: exact scheme %s mistranslated LPA %d: got PPA %d, want %d",
			d.scheme.Name(), lpa, tr.PPA, want)
	default:
		var err error
		tok, t, err = d.readApprox(lpa, tr.PPA, want, t)
		if err != nil {
			return 0, err
		}
	}

	if tok != d.token[lpa] {
		return 0, fmt.Errorf("ssd: data corruption at LPA %d", lpa)
	}
	for range d.cache.Put(lpa, tok, d.cfg.Flash.PageSize, false) {
		// Data-cache entries are clean (writes go through the buffer);
		// evictions are free.
	}
	return t, nil
}

// readApprox serves the flash reads of a mispredicted approximate
// translation (§3.5): the first read, aimed at the prediction, lands on
// the wrong page; its OOB reverse-mapping window is searched for the true
// page, and last the block-edge candidates the window could not reach are
// probed directly.
func (d *Device) readApprox(lpa addr.LPA, predicted, want addr.PPA, t time.Duration) (uint64, time.Duration, error) {
	d.stats.Mispredictions++
	// A segment's extrapolation can run past either end of the device
	// (its last LPAs predicted beyond the last page); the controller
	// clamps the read target to the pages it actually has.
	pred := clampPPA(int64(predicted), int64(d.cfg.Flash.TotalPages()))
	if pred == want {
		// The clamp put the first read on the true page: a misprediction
		// that costs no extra flash read.
		return d.verifiedRead(want, lpa, false, t)
	}

	// The first flash data read is about to land on the wrong page: this
	// host read pays the §3.5 double read, whatever recovery path finds
	// the true page afterwards.
	d.stats.DoubleReads++

	// The first read landed on the wrong page; its OOB holds the reverse
	// mappings of its ±gamma in-block neighborhood (one charged read).
	// An unreadable window (OOB UECC) is treated as containing nothing,
	// letting the fallback carry the search.
	window, t, werr := d.arr.OOBWindow(pred, d.gamma, t)
	sawOOBErr := werr != nil
	found := addr.InvalidPPA
	if werr == nil {
		found = d.searchWindow(window, pred, lpa)
	}
	if found == addr.InvalidPPA {
		// Block-bounded windows can miss a true page across a block edge.
		// Probe the remaining candidates' OOBs directly (each a charged
		// read).
		d.stats.OOBFallbacks++
		var probeErr bool
		found, t, probeErr = d.probeFallback(lpa, pred, t)
		sawOOBErr = sawOOBErr || probeErr
	}
	if found != want {
		if sawOOBErr {
			// The search ran into unreadable OOB regions, so the true
			// page's evidence may simply have been undecodable — an
			// honest I/O error, not a bookkeeping bug.
			d.stats.HostUECCs++
			return 0, t, &UECCError{LPA: lpa, PPA: want}
		}
		return 0, t, fmt.Errorf("ssd: misprediction recovery for LPA %d found PPA %v, want %d",
			lpa, found, want)
	}
	d.stats.MissFallbacks++
	// The window (or probe) search already proved found holds lpa, so
	// the final read's own OOB check may lean on that evidence.
	return d.verifiedRead(found, lpa, true, t)
}

// searchWindow scans an OOB reverse-mapping window read around center
// for lpa, returning the matching PPA or InvalidPPA. Matches are
// cross-checked against the PVT validity bitmap (firmware state, kept
// by the host write path): flash retains the reverse mappings of
// *stale* copies until their block is erased, so a stale match must keep
// scanning, not answer the read.
func (d *Device) searchWindow(window []addr.LPA, center addr.PPA, lpa addr.LPA) addr.PPA {
	for i, rev := range window {
		if rev != lpa {
			continue
		}
		ppa := center - addr.PPA(d.gamma) + addr.PPA(i)
		if int(ppa) < len(d.valid) && d.valid[ppa] {
			return ppa
		}
	}
	return addr.InvalidPPA
}

// probeFallback probes the candidates of [pred−γ, pred+γ] outside pred's
// block with direct OOB reads, nearest-first around pred (the window read
// already covered pred's block). sawErr reports whether any probe hit an
// unreadable OOB region (the caller uses it to tell an I/O-induced search
// failure from a bookkeeping bug).
func (d *Device) probeFallback(lpa addr.LPA, pred addr.PPA, t time.Duration) (addr.PPA, time.Duration, bool) {
	lo := int64(pred) - int64(d.gamma)
	hi := int64(pred) + int64(d.gamma)
	total := int64(d.cfg.Flash.TotalPages())
	predBlock := d.cfg.Flash.BlockOf(pred)
	sawErr := false
	for r := int64(0); r <= hi-lo; r++ {
		for _, p := range [2]int64{int64(pred) + r, int64(pred) - r} {
			if p < lo || p > hi || p < 0 || p >= total {
				continue
			}
			ppa := addr.PPA(p)
			if d.cfg.Flash.BlockOf(ppa) == predBlock {
				continue // already covered by the window read
			}
			rev, t2, oerr := d.arr.ReadOOB(ppa, t)
			t = t2
			sawErr = sawErr || oerr != nil
			if oerr == nil && rev == lpa && d.valid[ppa] {
				// Validity-checked like searchWindow: a stale copy's OOB
				// still names the LPA until its block is erased.
				return ppa, t, sawErr
			}
			if r == 0 {
				break // pred+0 == pred-0
			}
		}
	}
	return addr.InvalidPPA, t, sawErr
}

// clampPPA clips a predicted page address into the device.
func clampPPA(p, total int64) addr.PPA {
	if p < 0 {
		p = 0
	}
	if p >= total {
		p = total - 1
	}
	return addr.PPA(p)
}

// Write performs a host write of n pages starting at lpa and returns its
// latency. Writes land in the battery-backed data buffer (§3.8) and are
// acknowledged at DRAM speed; a full buffer triggers a block-granularity
// sorted flush whose flash traffic runs in the background.
func (d *Device) Write(lpa addr.LPA, n int) (time.Duration, error) {
	return d.WriteAt(lpa, n, d.now)
}

// WriteAt is Write issued at an explicit start time; see ReadAt for the
// issue-time clock contract.
func (d *Device) WriteAt(lpa addr.LPA, n int, start time.Duration) (time.Duration, error) {
	if err := d.checkRange(lpa, n); err != nil {
		return 0, err
	}
	d.stats.HostWriteReqs++
	issued := start
	for i := 0; i < n; i++ {
		l := lpa + addr.LPA(i)
		d.stats.HostPagesWrite++
		d.writeStamp++
		d.lost[l] = false // a rewrite replaces whatever was lost
		tok := uint64(l)<<24 ^ d.writeStamp
		if !d.buffered[l] {
			d.buffered[l] = true
			d.bufOrder = append(d.bufOrder, l)
		}
		d.token[l] = tok
		d.cache.Remove(l) // drop the stale cached copy
		if len(d.bufOrder) >= d.cfg.BufferPages {
			stall, err := d.flush(start)
			if err != nil {
				return 0, err
			}
			// Back-pressure: the write that could not fit until the
			// previous flush drained pays the stall.
			start += stall
		}
	}
	lat := start + cacheHitLatency - issued
	if end := issued + lat; end > d.now {
		d.now = end
	}
	d.writeLat.Observe(lat)
	return lat, nil
}

// checkRange validates a host request.
func (d *Device) checkRange(lpa addr.LPA, n int) error {
	if n <= 0 {
		return fmt.Errorf("ssd: request of %d pages", n)
	}
	if int(lpa)+n > d.logicalPages {
		return fmt.Errorf("ssd: request [%d, %d) beyond logical capacity %d",
			lpa, int(lpa)+n, d.logicalPages)
	}
	return nil
}

// Flush drains the write buffer, including a final partial block. Call
// at end of run before inspecting mapping-structure figures.
func (d *Device) Flush() error {
	if len(d.bufOrder) == 0 {
		return nil
	}
	_, err := d.flushChunks(d.now, true)
	return err
}

// flush writes out full blocks, keeping any partial remainder buffered.
// It returns how long the caller had to stall behind the previous flush.
func (d *Device) flush(t time.Duration) (time.Duration, error) {
	return d.flushChunks(t, false)
}

func (d *Device) flushChunks(t time.Duration, includePartial bool) (time.Duration, error) {
	wait := t
	if d.flushDone > wait {
		wait = d.flushDone
	}
	if d.gcHorizon > wait {
		// The flush is gated on in-flight GC, not on its own program
		// backlog; the extra wait is the GC-induced share of the stall
		// (what surfaces as p99/p999 spikes in open-loop replay).
		d.stats.GCStall += d.gcHorizon - wait
		wait = d.gcHorizon
	}
	stall := wait - t
	t = wait
	d.crashPoint("flush.begin")
	// Flush in sorted order (§3.3) or, with sorting disabled, in the
	// deterministic first-insertion order bufOrder records. The buffered
	// LPAs are unique, so the sort order is fully determined.
	d.flushLPAs = append(d.flushLPAs[:0], d.bufOrder...)
	lpas := d.flushLPAs
	if d.cfg.SortBuffer {
		slices.Sort(lpas)
	}
	ppb := d.cfg.Flash.PagesPerBlock
	flushable := len(lpas)
	if !includePartial {
		// Block granularity: a sub-block remainder stays buffered.
		flushable = (len(lpas) / ppb) * ppb
	}
	if flushable > 0 {
		done, err := d.flushPages(lpas[:flushable], t, includePartial)
		if err != nil {
			d.compactBufOrder()
			return stall, err
		}
		if done > d.flushDone {
			d.flushDone = done
		}
	}
	d.compactBufOrder()
	d.chargeMeta(d.scheme.Maintain(d.stats.HostPagesWrite), t)
	d.resizeCache()
	if err := d.maybeGC(t); err != nil {
		return stall, err
	}
	// Reliability housekeeping rides the flush cadence: retention-aged
	// blocks queue for scrubbing, the queue drains, and grown-bad blocks
	// are retired.
	d.retentionSweep(t)
	if err := d.drainScrub(t); err != nil {
		return stall, err
	}
	return stall, d.retireSweep(t)
}

// commitPairs installs freshly written mappings into the scheme,
// charging the translation-metadata cost at t.
func (d *Device) commitPairs(pairs []addr.Mapping, t time.Duration) {
	if len(pairs) == 0 {
		return
	}
	// In-buffer ordering is by insertion when sorting is disabled;
	// the scheme contract wants sorted pairs, so sort the *mappings*
	// without changing the physical layout (the learned patterns
	// degrade, which is exactly what the no-sort ablation measures).
	if !d.cfg.SortBuffer {
		slices.SortFunc(pairs, func(a, b addr.Mapping) int { return cmp.Compare(a.LPA, b.LPA) })
	}
	d.chargeMeta(d.scheme.Commit(pairs), t)
}

// sealFlushLane closes the open flush block: commit its pending
// mappings, count it flushed, and hand it to the GC victim index (no
// further programs land in it).
func (d *Device) sealFlushLane(t time.Duration) {
	st := &d.flushLane
	d.crashPoint("flush.programmed")
	d.commitPairs(d.flushPairs, t)
	d.crashPoint("flush.committed")
	d.flushPairs = d.flushPairs[:0]
	d.stats.FlushedBlocks++
	d.victims.add(st.block, d.bvc[st.block])
	*st = destLane{}
}

// flushPages programs the flushable pages in sorted order into the flush
// lane's blocks, sealing each as it fills: ascending LPAs land on
// consecutive PPAs, the monotone mapping §3.3 exploits.
//
// A program failure burns its page and condemns the lane's block: the
// pages already programmed are committed, the block is sealed bad
// (retired by the next retireSweep), and the lane continues — retrying
// the failed page first — on a fresh block. maxProgramAttempts
// consecutive failures of one page are a hard device failure.
func (d *Device) flushPages(lpas []addr.LPA, t time.Duration, sealPartial bool) (time.Duration, error) {
	ppb := d.cfg.Flash.PagesPerBlock
	st := &d.flushLane
	// The scheme only borrows a committed batch, so the buffer is
	// truncated and refilled rather than reallocated.
	d.flushPairs = d.flushPairs[:0]
	attempts := 0
	var done time.Duration
	for _, l := range lpas {
		for {
			if !st.open {
				b, err := d.allocBlock(t)
				if err != nil {
					return done, err
				}
				*st = destLane{open: true, block: b}
			}
			ppa := d.cfg.Flash.FirstPPA(st.block) + addr.PPA(st.next)
			wdone, werr := d.arr.Write(ppa, l, d.token[l], t)
			if wdone > done {
				done = wdone
			}
			st.next++
			if werr != nil {
				attempts++
				if attempts >= maxProgramAttempts {
					return done, fmt.Errorf("ssd: page for LPA %d failed to program on %d consecutive blocks: %w",
						l, attempts, werr)
				}
				d.crashPoint("flush.progfail")
				d.commitPairs(d.flushPairs, t)
				d.flushPairs = d.flushPairs[:0]
				bad := st.block
				*st = destLane{}
				d.abandonBadBlock(bad)
				continue // retry the same LPA on a fresh block
			}
			attempts = 0
			d.invalidate(l)
			d.truth[l] = ppa
			d.valid[ppa] = true
			d.bvc[st.block]++
			d.flushPairs = append(d.flushPairs, addr.Mapping{LPA: l, PPA: ppa})
			d.buffered[l] = false
			if st.next >= ppb {
				d.sealFlushLane(t)
			}
			break
		}
	}
	switch {
	case !st.open:
	case sealPartial:
		// Full Flush: close out the open block, partial or not.
		d.sealFlushLane(t)
	case len(d.flushPairs) > 0:
		// The lane stays open across flushes; its mappings must land in
		// the scheme now — reads consult the scheme, not the lane.
		d.crashPoint("flush.programmed")
		d.commitPairs(d.flushPairs, t)
		d.crashPoint("flush.committed")
		d.flushPairs = d.flushPairs[:0]
	}
	return done, nil
}

// compactBufOrder drops flushed LPAs from the insertion-order log,
// preserving the relative order of whatever is still buffered (the
// partial remainder a block-granularity flush keeps).
func (d *Device) compactBufOrder() {
	keep := d.bufOrder[:0]
	for _, l := range d.bufOrder {
		if d.buffered[l] {
			keep = append(keep, l)
		}
	}
	d.bufOrder = keep
}

// invalidate clears the PVT/BVC state of lpa's previous page and keeps
// the GC victim index in step.
func (d *Device) invalidate(lpa addr.LPA) {
	old := d.truth[lpa]
	if old == addr.InvalidPPA || !d.valid[old] {
		return
	}
	d.valid[old] = false
	b := d.cfg.Flash.BlockOf(old)
	d.bvc[b]--
	d.victims.update(b, d.bvc[b])
}

// allocBlock takes a free block for the flush lane, garbage-collecting
// first if the pool is empty.
func (d *Device) allocBlock(t time.Duration) (flash.BlockID, error) {
	if len(d.free) == 0 {
		if err := d.runGC(t, 1, false); err != nil {
			return 0, err
		}
	}
	b, ok := d.takeFree()
	if !ok {
		return 0, fmt.Errorf("ssd: out of flash blocks (logical space overcommitted)")
	}
	d.crashPoint("alloc")
	return b, nil
}

// takeFree allocates the next destination block for the flush or GC
// lane: the oldest free block on the next channel in rotation. nextChan
// is where the rotation stands; channels are tried from there in
// ascending order (wrapping), the first one holding a free block wins,
// and among that channel's free blocks the one freed longest ago is
// taken. Consecutive destinations therefore land on different channels —
// their program bursts run side by side — and a block erased an instant
// ago, whose erase may still be in flight under a channel-parallel GC
// run, goes to the back of the queue instead of straight back out.
//
// The choice is a function of device state alone (free order and the
// cursor, both folded into StateDigest), never of flash busy horizons:
// ReadAt's contract is that state depends on apply order only, and a
// chooser that looked at clocks would tie the physical layout to how
// request times interleave.
func (d *Device) takeFree() (flash.BlockID, bool) {
	if len(d.free) == 0 {
		return 0, false
	}
	fc := d.cfg.Flash
	idx, best := 0, fc.Channels
	for i, b := range d.free {
		// Distance from the cursor in rotation order; the scan runs oldest
		// first, so a tie keeps the older block.
		dist := (fc.ChannelOfBlock(b) - d.nextChan + fc.Channels) % fc.Channels
		if dist < best {
			idx, best = i, dist
			if dist == 0 {
				break
			}
		}
	}
	b := d.free[idx]
	d.free = append(d.free[:idx], d.free[idx+1:]...)
	d.nextChan = (fc.ChannelOfBlock(b) + 1) % fc.Channels
	d.isFree[b] = false
	d.nextSeq++
	d.blockSeq[b] = d.nextSeq
	return b, true
}

// chargeMeta charges translation-metadata flash operations, routing each
// to the die derived from its translation page's identity. Both reads
// and writes serialize into the request's timeline.
func (d *Device) chargeMeta(c ftl.Cost, t time.Duration) time.Duration {
	for _, id := range c.ReadIDs {
		t = d.arr.MetaRead(id, t)
		d.stats.MetaReads++
	}
	for _, id := range c.WriteIDs {
		d.crashPoint("meta.write")
		t = d.arr.MetaWrite(id, t)
		d.stats.MetaWrites++
	}
	return t
}
