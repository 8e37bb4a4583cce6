package ssd

import (
	"fmt"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
)

// CheckInvariants audits the device's bookkeeping against the simulator
// ground truth and returns the first violation found. It is an O(pages)
// sweep meant for tests (property and differential suites call it
// between workload phases); it performs no flash traffic and charges no
// simulated time.
//
// Checked invariants:
//   - PVT ↔ truth bijection: a valid page's OOB reverse mapping points
//     at an LPA whose truth entry points back, every mapped LPA's page
//     is valid and programmed, and no LPA owns two valid pages.
//   - BVC: each block's valid counter equals its PVT popcount.
//   - Free pool: the free list and isFree bitmap agree, free blocks
//     hold no valid pages, no allocation sequence, and appear once.
//   - Victim index: exactly the sealed allocated blocks are candidates,
//     each bucketed at its current valid count; open destination
//     blocks and free blocks are absent.
//   - Bad blocks: never on the free list or an open destination; a
//     retired block (bad, no allocation sequence) holds no valid pages
//     and sits in no structure at all.
//   - Lost LPAs: map to no page and hold no buffered data (a host
//     rewrite clears the flag before buffering).
//   - Flush and GC lanes: an open destination is an allocated,
//     partially programmed block.
//   - Write buffer: never exceeds its configured capacity.
//   - Demand-paged mapping: the scheme's GMD bookkeeping is internally
//     consistent (every metadata-journal block's live count and the
//     journal's footprint cap included), its resident
//     state fits the mapping budget, and its translation-block footprint
//     fits the over-provisioned capacity.
//   - Learned-table shape (through the same CheckMapping hook): every
//     resident group is at most L levels deep and its footprint is
//     bounded by its live LPAs, not by how often it was written — the
//     constants live beside the rebuild triggers in internal/core.
//   - Trusted answers (ftl.ExactAuditor): every accurate translation of
//     a resident group lands on the LPA's live page — the read path
//     trusts it without OOB verification, so a wrong one is found here
//     before any read of that LPA.
//   - Die timelines (flash.Array.CheckTimelines): busy spans sorted and
//     disjoint, and no die time lost or booked twice.
func (d *Device) CheckInvariants() error {
	cfg := d.cfg.Flash

	if err := d.arr.CheckTimelines(); err != nil {
		return fmt.Errorf("invariant: %w", err)
	}

	if ea, ok := d.scheme.(ftl.ExactAuditor); ok {
		// Every translation the read path trusts with no OOB verification
		// must point at the live page; the read path fails a wrong one
		// only once the LPA is read. Unmapped and lost LPAs have no live page — the oracle
		// reports them absent and the audit skips them (the next read of
		// such an LPA fails before flash).
		truth := func(lpa addr.LPA) (addr.PPA, bool) {
			if int(lpa) >= d.logicalPages {
				return addr.InvalidPPA, false
			}
			ppa := d.truth[lpa]
			if ppa == addr.InvalidPPA || d.lost[lpa] {
				return addr.InvalidPPA, false
			}
			return ppa, true
		}
		if err := ea.AuditExact(truth); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
	}

	if gp, ok := d.scheme.(ftl.GroupPaged); ok {
		if err := gp.CheckMapping(); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
		op := cfg.TotalPages() - d.logicalPages
		if tp := gp.TranslationPages(); tp > op {
			return fmt.Errorf("invariant: %d translation pages exceed the %d-page over-provisioned capacity", tp, op)
		}
		if d.mapBudget > 0 && d.scheme.MemoryBytes() > d.mapBudget {
			return fmt.Errorf("invariant: mapping state %dB exceeds its %dB budget",
				d.scheme.MemoryBytes(), d.mapBudget)
		}
	}

	// PVT ↔ ground truth.
	validPages := 0
	for p := 0; p < cfg.TotalPages(); p++ {
		ppa := addr.PPA(p)
		if !d.valid[ppa] {
			continue
		}
		validPages++
		if !d.arr.Written(ppa) {
			return fmt.Errorf("invariant: PPA %d valid but not programmed", ppa)
		}
		lpa := d.arr.Reverse(ppa)
		if lpa == addr.InvalidLPA {
			return fmt.Errorf("invariant: valid PPA %d has no OOB reverse mapping", ppa)
		}
		if int(lpa) >= d.logicalPages {
			return fmt.Errorf("invariant: valid PPA %d maps to out-of-range LPA %d", ppa, lpa)
		}
		if d.truth[lpa] != ppa {
			return fmt.Errorf("invariant: valid PPA %d claims LPA %d, but truth[%d] = %d (two valid PPAs for one LPA)",
				ppa, lpa, lpa, d.truth[lpa])
		}
	}
	mapped := 0
	for lpa, ppa := range d.truth {
		if ppa == addr.InvalidPPA {
			continue
		}
		mapped++
		if !d.valid[ppa] {
			return fmt.Errorf("invariant: LPA %d maps to PPA %d, which is not valid", lpa, ppa)
		}
	}
	if validPages != mapped {
		return fmt.Errorf("invariant: %d valid pages != %d mapped LPAs", validPages, mapped)
	}

	// BVC matches the PVT, block by block.
	for b := 0; b < cfg.Blocks(); b++ {
		count := 0
		first := cfg.FirstPPA(flash.BlockID(b))
		for i := 0; i < cfg.PagesPerBlock; i++ {
			if d.valid[first+addr.PPA(i)] {
				count++
			}
		}
		if count != d.bvc[b] {
			return fmt.Errorf("invariant: block %d BVC = %d, PVT count = %d", b, d.bvc[b], count)
		}
	}

	// Free pool bookkeeping.
	onList := make([]bool, cfg.Blocks())
	for _, b := range d.free {
		if onList[b] {
			return fmt.Errorf("invariant: block %d appears twice on the free list", b)
		}
		onList[b] = true
		if !d.isFree[b] {
			return fmt.Errorf("invariant: free-listed block %d not marked isFree", b)
		}
		if d.bvc[b] != 0 {
			return fmt.Errorf("invariant: free block %d holds %d valid pages", b, d.bvc[b])
		}
		if d.blockSeq[b] != 0 {
			return fmt.Errorf("invariant: free block %d has allocation sequence %d", b, d.blockSeq[b])
		}
	}
	for b := 0; b < cfg.Blocks(); b++ {
		if d.isFree[b] != onList[b] {
			return fmt.Errorf("invariant: block %d isFree=%v but free-listed=%v", b, d.isFree[b], onList[b])
		}
	}

	// Bad-block lifecycle: a bad block is either sealed awaiting
	// retirement (still allocated, still a victim candidate) or retired
	// (out of every structure); it must never be free or an open lane.
	for b := 0; b < cfg.Blocks(); b++ {
		if !d.bad[b] {
			continue
		}
		id := flash.BlockID(b)
		switch {
		case d.isFree[b]:
			return fmt.Errorf("invariant: bad block %d is on the free list", b)
		case d.isOpenDest(id):
			return fmt.Errorf("invariant: bad block %d is an open destination", b)
		case d.blockSeq[b] == 0 && d.bvc[b] != 0:
			return fmt.Errorf("invariant: retired block %d still holds %d valid pages", b, d.bvc[b])
		case d.blockSeq[b] == 0 && d.victims.Has(id):
			return fmt.Errorf("invariant: retired block %d is still a GC victim candidate", b)
		}
	}

	// Lost LPAs map nowhere and hold no buffered data.
	for l, lost := range d.lost {
		if !lost {
			continue
		}
		lpa := addr.LPA(l)
		if d.truth[lpa] != addr.InvalidPPA {
			return fmt.Errorf("invariant: lost LPA %d still maps to PPA %d", lpa, d.truth[lpa])
		}
		if d.buffered[lpa] {
			return fmt.Errorf("invariant: lost LPA %d has buffered data", lpa)
		}
	}

	// Open destination blocks are allocated and mid-block, and the flush
	// lane's block is absent from the victim index until sealed.
	for _, l := range []struct {
		name string
		st   destLane
	}{{"GC", d.gcLane}, {"flush", d.flushLane}} {
		st := l.st
		if !st.open {
			continue
		}
		switch {
		case d.isFree[st.block]:
			return fmt.Errorf("invariant: %s lane block %d is on the free list", l.name, st.block)
		case d.blockSeq[st.block] == 0:
			return fmt.Errorf("invariant: %s lane block %d has no allocation sequence", l.name, st.block)
		case st.next <= 0 || st.next >= cfg.PagesPerBlock:
			return fmt.Errorf("invariant: %s lane block %d open at page %d of %d",
				l.name, st.block, st.next, cfg.PagesPerBlock)
		case d.victims.Has(st.block):
			return fmt.Errorf("invariant: open %s lane block %d already in the victim index", l.name, st.block)
		}
	}

	// Victim index ↔ device state: candidates are exactly the sealed
	// allocated blocks, at their live valid counts.
	for b := 0; b < cfg.Blocks(); b++ {
		id := flash.BlockID(b)
		sealed := !d.isFree[b] && d.blockSeq[b] != 0 && !d.isOpenDest(id)
		switch {
		case sealed && !d.victims.Has(id):
			return fmt.Errorf("invariant: sealed block %d missing from the victim index", b)
		case !sealed && d.victims.Has(id):
			return fmt.Errorf("invariant: block %d in the victim index but free or open (isFree=%v seq=%d)",
				b, d.isFree[b], d.blockSeq[b])
		case sealed && d.victims.Valid(id) != d.bvc[b]:
			return fmt.Errorf("invariant: victim index holds block %d at %d valid pages, BVC says %d",
				b, d.victims.Valid(id), d.bvc[b])
		}
	}

	buffered := 0
	for _, b := range d.buffered {
		if b {
			buffered++
		}
	}
	if buffered > d.cfg.BufferPages {
		return fmt.Errorf("invariant: write buffer holds %d pages, capacity %d", buffered, d.cfg.BufferPages)
	}
	// The insertion-order log mirrors the buffer exactly: same size, no
	// duplicates, every entry buffered (flush layout and the buffer's
	// occupancy count depend on it).
	if len(d.bufOrder) != buffered {
		return fmt.Errorf("invariant: buffer order log holds %d LPAs, buffer %d", len(d.bufOrder), buffered)
	}
	seen := make(map[addr.LPA]bool, len(d.bufOrder))
	for _, l := range d.bufOrder {
		if !d.buffered[l] {
			return fmt.Errorf("invariant: buffer order log names unbuffered LPA %d", l)
		}
		if seen[l] {
			return fmt.Errorf("invariant: buffer order log lists LPA %d twice", l)
		}
		seen[l] = true
	}
	return nil
}
