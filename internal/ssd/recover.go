package ssd

import (
	"sort"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
)

// RecoveryReport summarizes a crash-recovery scan (§3.8, §5).
type RecoveryReport struct {
	// ScanTime is the simulated wall time of the recovery flash traffic
	// (OOB scan plus translation-page reads), bounded by the busiest
	// channel (the paper scans channels in parallel).
	ScanTime time.Duration
	// PagesScanned counts OOB reads performed.
	PagesScanned uint64
	// BlocksScanned counts programmed blocks visited.
	BlocksScanned int
	// MappingsRebuilt counts live LPA→PPA pairs re-learned from the OOB
	// scan (pairs in groups the GMD could not restore).
	MappingsRebuilt int
	// GroupsRestored counts segment groups restored directly from their
	// persisted records via the GMD, skipping re-learning.
	GroupsRestored int
	// MappingsRestored counts live LPAs covered by restored groups.
	MappingsRestored int
	// TransPagesRestored is the restored journal's translation
	// footprint in pages: whole translation blocks, the journal's unit
	// of allocation. They are not read during recovery — restored groups
	// demand-load on first access, where the reads are charged as
	// MetaReads — so restart is O(directory), not O(mapping).
	TransPagesRestored int
	// OOBScanErrors counts pages whose own OOB failed to decode during
	// the scan; OOBScanReconstructed of those were recovered from a
	// sibling page's OOB window (one extra charged read each).
	OOBScanErrors        int
	OOBScanReconstructed int
	// LostMappings counts live mappings the scan could not recover: the
	// newest copy's OOB was unreadable even via siblings, so the LPA is
	// marked lost (reads return *UECCError until the host rewrites it)
	// rather than silently resurrected from a stale older copy.
	LostMappings int
}

// Recover simulates a power failure without battery-backed DRAM (§3.8):
// every controller RAM structure is lost — the write buffer, data
// cache, mapping state, PVT/BVC bitmaps, free pool, victim index, GC
// lanes and scrub queue — and the firmware rebuilds all of it from
// what survives on flash: the pages themselves, their OOB reverse
// mappings and write sequence numbers, the group records the GMD places
// in the metadata journal, and the bad-block table (a reserved flash
// region on real parts). The crash may have hit mid-flush, mid-GC or
// mid-metadata-write; the rebuild makes no assumption about where.
//
// When both schemes page groups through a Global Mapping Directory
// (ftl.GroupPaged), recovery first restores the GMD: every group whose
// persisted record was current at the crash is revived verbatim
// from flash. Only groups whose latest state existed solely in DRAM are
// re-learned from the OOB scan. Each page's OOB carries its reverse LPA
// and a write sequence number, so the newest copy of every LPA wins
// regardless of which block GC packed it into.
//
// The scan runs under the fault model: an unreadable OOB is retried via
// the page's sibling window, and a live copy that stays unreadable is
// reported lost — never silently replaced by a stale older copy.
//
// Buffered-but-unflushed writes are lost, exactly as on a real drive
// without power-loss protection; the device's ground truth is rebuilt
// from flash so subsequent reads verify the recovered state.
func (d *Device) Recover(fresh ftl.Scheme) (RecoveryReport, error) {
	var rep RecoveryReport
	cfg := d.cfg.Flash

	// Pre-crash oracle state, for the data-loss audit below. Everything
	// the firmware itself knew is discarded.
	preTruth := append([]addr.PPA(nil), d.truth...)

	clear(d.buffered)
	d.bufOrder = d.bufOrder[:0]
	d.cache.Resize(0)
	d.gcLane, d.flushLane = destLane{}, destLane{}
	for i := range d.scrubSet {
		d.scrubSet[i] = false
	}
	d.scrubPend = d.scrubPend[:0]
	d.flushDone = d.now
	d.gcHorizon = d.now

	// GMD restore: each surviving group's one live journal record
	// short-circuits the re-learn for its group.
	var restored map[addr.GroupID][]byte
	if oldGP, ok := d.scheme.(ftl.GroupPaged); ok {
		if freshGP, ok := fresh.(ftl.GroupPaged); ok {
			d.wireJournal(fresh)
			images := oldGP.PersistedGroups()
			if len(images) > 0 {
				if err := freshGP.RestoreGroups(images); err != nil {
					return rep, err
				}
				restored = images
				rep.GroupsRestored = len(images)
				rep.TransPagesRestored = freshGP.TranslationPages()
			}
		}
	}

	// Channel-parallel OOB scan of every programmed block. Burned pages
	// (failed programs) carry a nulled OOB and are skipped; unreadable
	// OOBs retry through the sibling window at one extra read.
	chanBusy := make([]time.Duration, cfg.Channels)
	type copyRef struct {
		ppa addr.PPA
		seq uint64
	}
	newest := make(map[addr.LPA]copyRef)
	blockMaxSeq := make([]uint64, cfg.Blocks())
	var unreadable []addr.PPA
	for b := 0; b < cfg.Blocks(); b++ {
		id := flash.BlockID(b)
		programmed := d.arr.ProgrammedPages(id)
		if programmed == 0 {
			continue
		}
		rep.BlocksScanned++
		first := cfg.FirstPPA(id)
		ch := cfg.ChannelOf(first)
		for i := 0; i < programmed; i++ {
			ppa := first + addr.PPA(i)
			rep.PagesScanned++
			chanBusy[ch] += cfg.ReadLatency
			lpa, seq, err := d.arr.ScanOOB(ppa, d.now)
			if err != nil {
				rep.OOBScanErrors++
				chanBusy[ch] += cfg.ReadLatency // the sibling window read
				lpa, seq, err = d.arr.ScanSibling(ppa, d.now)
				if err != nil {
					unreadable = append(unreadable, ppa)
					continue
				}
				rep.OOBScanReconstructed++
			}
			if seq > blockMaxSeq[b] {
				blockMaxSeq[b] = seq
			}
			if lpa == addr.InvalidLPA || int(lpa) >= d.logicalPages {
				continue // burned page
			}
			if cur, ok := newest[lpa]; !ok || seq > cur.seq {
				newest[lpa] = copyRef{ppa: ppa, seq: seq}
			}
		}
	}
	for _, busy := range chanBusy {
		if busy > rep.ScanTime {
			rep.ScanTime = busy
		}
	}

	// Data-loss audit: a page the scan could not attribute may have been
	// the live copy of its LPA. Resurrecting an older copy in its place
	// would return stale data, so the LPA is reported lost instead. (The
	// oracle reverse stands in for end-to-end data checksums a host
	// would use to reject the stale copy.)
	for _, ppa := range unreadable {
		l := d.arr.Reverse(ppa)
		if l == addr.InvalidLPA || preTruth[l] != ppa {
			continue // a stale copy died unread; nothing was live there
		}
		delete(newest, l)
		d.lost[l] = true
		rep.LostMappings++
	}
	// LPAs lost before the crash stay lost: their flash copies (if any
	// survive) are stale by definition.
	for l, lost := range d.lost {
		if lost {
			delete(newest, addr.LPA(l))
		}
	}

	// Rebuild ground truth, PVT and BVC from the scan.
	for l := range d.truth {
		d.truth[l] = addr.InvalidPPA
		d.token[l] = 0
	}
	for p := range d.valid {
		d.valid[p] = false
	}
	for b := range d.bvc {
		d.bvc[b] = 0
	}
	for lpa, ref := range newest {
		d.truth[lpa] = ref.ppa
		d.token[lpa] = d.arr.TokenAt(ref.ppa)
		d.valid[ref.ppa] = true
		d.bvc[cfg.BlockOf(ref.ppa)]++
	}

	// Rebuild the free pool, allocation sequence and victim index. Fully
	// erased healthy blocks are free, queued in block order with the
	// allocator's channel rotation restarted; every programmed block is
	// sealed (lanes reset closed) and re-enters the victim index — including
	// bad ones, which the next retireSweep pulls back out. Allocation
	// order is re-derived from each block's newest write sequence.
	type blockOrder struct {
		b   int
		seq uint64
	}
	var order []blockOrder
	d.free = d.free[:0]
	d.nextChan = 0
	for b := 0; b < cfg.Blocks(); b++ {
		d.blockSeq[b] = 0
		d.isFree[b] = false
		if d.arr.ProgrammedPages(flash.BlockID(b)) == 0 {
			if !d.bad[b] {
				d.free = append(d.free, flash.BlockID(b))
				d.isFree[b] = true
			}
			continue
		}
		order = append(order, blockOrder{b: b, seq: blockMaxSeq[b]})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].seq < order[j].seq })
	d.nextSeq = 0
	d.victims = newVictimIndex(cfg.Blocks(), cfg.PagesPerBlock)
	for _, o := range order {
		d.nextSeq++
		d.blockSeq[o.b] = d.nextSeq
		d.victims.add(flash.BlockID(o.b), d.bvc[o.b])
	}

	// Re-learn the surviving mappings in LPA order, committing in
	// ascending-PPA runs to respect the scheme contract. Pairs in
	// GMD-restored groups are skipped only when the restored image
	// actually locates them: a crash between flush programs and the
	// mapping commit leaves a clean-persisted image stale for exactly
	// those pages, and they must be re-learned from the scan (the
	// journal-replay role the OOB sequence numbers play in real
	// firmware).
	freshGamma, freshHint := schemeCaps(fresh)
	pairs := make([]addr.Mapping, 0, len(newest))
	for lpa, ref := range newest {
		if _, ok := restored[addr.Group(lpa)]; ok && restoredCovers(fresh, lpa, ref.ppa, freshGamma) {
			continue
		}
		pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: ref.ppa})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].LPA < pairs[j].LPA })
	start := 0
	for i := 1; i <= len(pairs); i++ {
		if i == len(pairs) || pairs[i].PPA <= pairs[i-1].PPA {
			fresh.Commit(pairs[start:i])
			start = i
		}
	}
	rep.MappingsRebuilt = len(pairs)
	if len(restored) > 0 {
		for lpa, ppa := range d.truth {
			if ppa == addr.InvalidPPA {
				continue
			}
			if _, ok := restored[addr.Group(addr.LPA(lpa))]; ok {
				rep.MappingsRestored++
			}
		}
	}

	fresh.SetBudget(d.mapBudget)
	d.scheme, d.gamma, d.runHint = fresh, freshGamma, freshHint
	d.resizeCache()
	return rep, nil
}

// restoredCovers reports whether a restored group image already locates
// lpa at ppa: exactly, or — for an approximate answer the read path
// verifies — within the ±γ learning guarantee its window search
// recovers from. The Translate side effects (demand-page LRU touches)
// are part of the recovery validation pass; its flash cost is subsumed
// by ScanTime.
func restoredCovers(fresh ftl.Scheme, lpa addr.LPA, ppa addr.PPA, gamma int) bool {
	tr, ok := fresh.Translate(lpa)
	if !ok {
		return false
	}
	if !tr.Approx {
		return tr.PPA == ppa
	}
	diff := int64(tr.PPA) - int64(ppa)
	if diff < 0 {
		diff = -diff
	}
	return diff <= int64(gamma)
}
