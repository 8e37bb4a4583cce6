// Reliability layer: how the controller responds to the flash fault
// model. Corrupted OOB reverse mappings are rebuilt from a sibling
// page's OOB window (§3.5 stores every page's reverse mapping
// redundantly in its in-block neighbors' windows); uncorrectable data
// errors surface to the host as explicit *UECCError values — never as
// silently wrong data; blocks whose disturb or retention counters cross
// the configured thresholds are relocated through the GC path
// (read-reclaim scrubbing); and blocks that fail a program or erase are
// retired from rotation with full free-pool and victim-index
// bookkeeping.
package ssd

import (
	"errors"
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
)

// UECCError is the host-visible I/O error for a read whose data could
// not be corrected or verified: the drive reports the failure rather
// than return bits it cannot vouch for.
type UECCError struct {
	LPA addr.LPA
	PPA addr.PPA // flash page that failed, or InvalidPPA for lost LPAs
}

func (e *UECCError) Error() string {
	if e.PPA == addr.InvalidPPA {
		return fmt.Sprintf("ssd: uncorrectable error: LPA %d lost", e.LPA)
	}
	return fmt.Sprintf("ssd: uncorrectable error reading LPA %d (PPA %d)", e.LPA, e.PPA)
}

// maxProgramAttempts caps how many fresh blocks a single page program
// may burn through before the device reports a hard failure (the drive
// is out of usable flash, not merely unlucky).
const maxProgramAttempts = 4

// verifiedRead performs the OOB-verified data read of ppa on behalf of
// lpa (§3.5). Under the fault model three things can go wrong:
//
//   - data-area UECC: the payload is lost to this read; the host gets a
//     *UECCError (a later retry re-samples, as real soft-decode does).
//   - OOB-area UECC: the payload decoded but the reverse mapping did
//     not; it is reconstructed from a sibling page's OOB window. If no
//     sibling can be decoded either, an exact translation (authoritative
//     mapping table) is trusted without the OOB cross-check, while an
//     approximate one — where the reverse mapping is the only proof the
//     prediction hit the right page — fails with *UECCError rather than
//     return unverified data.
//   - reverse-mapping mismatch: bookkeeping corruption, a hard error.
//
// The read also ticks the block's disturb counter toward the scrub
// threshold.
func (d *Device) verifiedRead(ppa addr.PPA, lpa addr.LPA, exact bool, t time.Duration) (uint64, time.Duration, error) {
	tok, rev, t, err := d.arr.Read(ppa, t)
	d.noteDisturb(ppa)
	switch {
	case err == nil:
	case errors.Is(err, flash.ErrUncorrectable):
		d.stats.HostUECCs++
		return 0, t, &UECCError{LPA: lpa, PPA: ppa}
	case errors.Is(err, flash.ErrOOBUncorrectable):
		rev, t = d.reconstructReverse(ppa, t)
		if rev == addr.InvalidLPA {
			if !exact {
				d.stats.HostUECCs++
				return 0, t, &UECCError{LPA: lpa, PPA: ppa}
			}
			rev = lpa // exact mapping tables are authoritative without the cross-check
		}
	default:
		return 0, t, err
	}
	if rev != lpa {
		return 0, t, fmt.Errorf("ssd: OOB reverse mapping of PPA %d is %v, want %d", ppa, rev, lpa)
	}
	return tok, t, nil
}

// reconstructReverse rebuilds ppa's corrupted reverse mapping from a
// sibling page's OOB window, preferring the later sibling (programmed
// after ppa, so its window certainly recorded it). Each attempt costs a
// charged window read. Returns InvalidLPA when no in-block sibling
// window can be decoded.
func (d *Device) reconstructReverse(ppa addr.PPA, t time.Duration) (addr.LPA, time.Duration) {
	gw := d.gamma
	if gw < 1 {
		gw = 1 // exact schemes still write ±1 windows for reconstruction
	}
	if maxw := (d.cfg.Flash.OOBEntries() - 1) / 2; gw > maxw {
		gw = maxw
	}
	if gw < 1 {
		return addr.InvalidLPA, t
	}
	b := d.cfg.Flash.BlockOf(ppa)
	first := d.cfg.Flash.FirstPPA(b)
	last := first + addr.PPA(d.cfg.Flash.PagesPerBlock-1)
	for _, sib := range [2]addr.PPA{ppa + 1, ppa - 1} {
		if sib < first || sib > last || !d.arr.Written(sib) {
			continue
		}
		window, t2, err := d.arr.OOBWindow(sib, gw, t)
		t = t2
		if err != nil {
			continue // the sibling's own OOB is unreadable too
		}
		idx := gw + int(int64(ppa)-int64(sib))
		if idx >= 0 && idx < len(window) && window[idx] != addr.InvalidLPA {
			d.stats.OOBReconstructed++
			return window[idx], t
		}
	}
	return addr.InvalidLPA, t
}

// loseLPA records that lpa's only copy was destroyed: the mapping is
// dropped and every subsequent read returns *UECCError until the host
// rewrites the page. This is the honest failure mode — the alternative
// is returning stale or corrupt data.
func (d *Device) loseLPA(lpa addr.LPA) {
	d.invalidate(lpa)
	d.truth[lpa] = addr.InvalidPPA
	d.token[lpa] = 0
	d.lost[lpa] = true
	d.cache.Remove(lpa)
}

// noteDisturb checks ppa's block against the read-disturb scrub
// threshold after a data-path read, queueing it for read-reclaim.
func (d *Device) noteDisturb(ppa addr.PPA) {
	if d.cfg.ScrubDisturbReads == 0 {
		return
	}
	if b := d.cfg.Flash.BlockOf(ppa); d.arr.BlockReads(b) >= d.cfg.ScrubDisturbReads {
		d.queueScrub(b)
	}
}

// queueScrub marks a block for read-reclaim relocation if it is a
// sealed, healthy, allocated block (anything else is either already
// being handled or has nothing to refresh).
func (d *Device) queueScrub(b flash.BlockID) {
	if d.scrubSet[b] || d.isFree[b] || d.bad[b] || d.blockSeq[b] == 0 || d.isOpenDest(b) {
		return
	}
	d.scrubSet[b] = true
	d.scrubPend = append(d.scrubPend, b)
}

// retentionSweep queues blocks whose oldest page has sat programmed
// past the retention threshold (flush-time sweep; real firmware runs
// the equivalent patrol scrubber in idle time).
func (d *Device) retentionSweep(t time.Duration) {
	if d.cfg.ScrubRetentionAge == 0 {
		return
	}
	for b := 0; b < d.cfg.Flash.Blocks(); b++ {
		id := flash.BlockID(b)
		if d.arr.ProgrammedPages(id) == 0 {
			continue
		}
		if t-d.arr.BlockProgrammedAt(id) >= d.cfg.ScrubRetentionAge {
			d.queueScrub(id)
		}
	}
}

// drainScrub relocates the queued scrub victims through the normal GC
// relocation path (their pages are re-sorted by LPA and stay
// learnable). Blocks are re-checked at drain time — GC may have
// reclaimed them since they were queued — and deferred when no free
// destination headroom exists.
func (d *Device) drainScrub(t time.Duration) error {
	if len(d.scrubPend) == 0 {
		return nil
	}
	n := 0
	for _, b := range d.scrubPend {
		if d.isFree[b] || d.bad[b] || d.blockSeq[b] == 0 || d.isOpenDest(b) {
			d.scrubSet[b] = false
			continue
		}
		if len(d.free) == 0 {
			d.scrubPend[n] = b // defer until space frees up
			n++
			continue
		}
		d.scrubSet[b] = false
		d.crashPoint("scrub.begin")
		done, err := d.relocate(b, t, false)
		if err != nil {
			return err
		}
		d.stats.ScrubRelocations++
		t = done
	}
	d.scrubPend = d.scrubPend[:n]
	return nil
}

// abandonBadBlock seals a block whose page program just failed: it
// stays allocated with whatever valid pages it holds, enters the victim
// index like any sealed block (its surviving pages remain readable),
// and is marked bad so retireSweep relocates and retires it.
func (d *Device) abandonBadBlock(b flash.BlockID) {
	d.bad[b] = true
	d.stats.RetiredBlocks++ // counted at condemnation; swept out later
	d.victims.add(b, d.bvc[b])
}

// retireSweep pulls grown-bad blocks out of rotation: their remaining
// valid pages are relocated through the GC path and the block is
// retired (never erased, never freed). Retirement needs free headroom
// for the relocated pages; with an empty pool the sweep defers to the
// next flush.
func (d *Device) retireSweep(t time.Duration) error {
	for b := 0; b < d.cfg.Flash.Blocks(); b++ {
		id := flash.BlockID(b)
		if !d.bad[b] || d.blockSeq[b] == 0 || d.isOpenDest(id) {
			continue
		}
		if len(d.free) == 0 {
			return nil
		}
		done, err := d.relocate(id, t, true)
		if err != nil {
			return err
		}
		t = done
	}
	return nil
}

// SetCrashHook installs fn to be invoked at named points on the flush,
// GC, scrub and metadata paths. The crash-torture harness panics out of
// the hook to model sudden power loss mid-operation; nil disables.
func (d *Device) SetCrashHook(fn func(point string)) { d.crashHook = fn }

func (d *Device) crashPoint(name string) {
	if d.crashHook != nil {
		d.crashHook(name)
	}
}

// TruthSnapshot returns copies of the simulator's per-LPA ground truth:
// the expected payload token (0 for unwritten or lost LPAs) and the
// lost bitmap. The torture harness snapshots it around crashes for
// differential verification.
func (d *Device) TruthSnapshot() (tokens []uint64, lost []bool) {
	return append([]uint64(nil), d.token...), append([]bool(nil), d.lost...)
}

// BufferedLPAs lists the LPAs currently dirty in the write buffer — the
// set a sudden power loss may legally lose (acknowledged at DRAM speed,
// not yet durable; §3.8 assumes no battery backing) — in first-insertion
// order. Called mid-flush (from a crash hook), it leaves out the pages
// the flush has already programmed.
func (d *Device) BufferedLPAs() []addr.LPA {
	out := make([]addr.LPA, 0, len(d.bufOrder))
	for _, l := range d.bufOrder {
		if d.buffered[l] {
			out = append(out, l)
		}
	}
	return out
}
