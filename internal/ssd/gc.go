package ssd

import (
	"errors"
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
)

// destLane is one open destination block, the flush lane's or the GC
// lane's, programmed in page order.
type destLane struct {
	open  bool
	block flash.BlockID
	next  int
}

// movedPage is one valid page of a GC victim, staged in controller DRAM
// between copy-out and copy-in.
type movedPage struct {
	lpa addr.LPA
	tok uint64
}

// sortByLPA sorts pages by LPA with a least-significant-digit radix sort,
// one pass per LPA byte, using tmp as the second buffer (grown if short)
// and returning it for reuse. A byte every page shares costs no pass.
func sortByLPA(pages, tmp []movedPage) []movedPage {
	if len(pages) < 2 {
		return tmp
	}
	if cap(tmp) < len(pages) {
		tmp = make([]movedPage, len(pages))
	}
	src, dst := pages, tmp[:len(pages)]
	for shift := 0; shift < 32; shift += 8 {
		var at [256]int
		for _, p := range src {
			at[byte(p.lpa>>shift)]++
		}
		if at[byte(src[0].lpa>>shift)] == len(src) {
			continue
		}
		pos := 0
		for b, n := range at {
			at[b] = pos
			pos += n
		}
		for _, p := range src {
			b := byte(p.lpa >> shift)
			dst[at[b]] = p
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &pages[0] {
		copy(pages, src)
	}
	return tmp
}

// maybeGC runs garbage collection when the free pool drops below the low
// watermark, reclaiming until the high watermark (§3.6), then checks
// wear leveling.
func (d *Device) maybeGC(t time.Duration) error {
	blocks := d.cfg.Flash.Blocks()
	low := int(d.cfg.GCLowWater * float64(blocks))
	high := int(d.cfg.GCHighWater * float64(blocks))
	if len(d.free) >= low {
		return d.maybeWearLevel(t)
	}
	// Watermark-driven reclaim is best-effort: when no victim frees space
	// (every candidate fully valid) or the watermark is beyond what the
	// candidates' stale pages can free, the drive simply runs below its
	// high watermark until churn invalidates pages — only allocation
	// with an empty pool is a hard failure (allocBlock's runGC call).
	if err := d.runGC(t, high, true); err != nil {
		return err
	}
	return d.maybeWearLevel(t)
}

// runGC reclaims blocks until at least minFree are free (stopping
// quietly instead when bestEffort is set and no victim would free net
// space). A best-effort run also does not chase a target the victim
// index cannot reach: getting there would drain every candidate,
// relocating the fullest ones for a few stale pages each, so the run
// aims one block short of what draining would free (reachableFree) and
// leaves the fullest candidates behind. It reclaims in windows: a window
// is up to Flash.Channels victims, picked greedily (fewest valid pages
// first, §3.6) over the incremental valid-count index in the order a
// one-at-a-time run would pick them. Their valid pages are copied out
// into one pool, which reclaim sorts by LPA and programs into the GC
// destination lane. LPAs are unique device-wide, so LPA order is also
// mapping-group order: each group's relocated pages land as one
// ascending run per destination block, and a relearning scheme re-fits
// each touched group once per window instead of once per victim that
// held a few of its pages.
//
// A window stops growing once its victims, net of the destination blocks
// their pooled pages will open (destBlocks), bring the free pool to
// minFree — so a run stops at the victim a one-at-a-time run toward the
// same target would stop at — or once those destination blocks would
// leave no free block. A window's victims are erased only after its last
// program, so its destinations come out of the pool as it stood, and the
// next victim could need a fresh destination block.
//
// Two windows are in flight at once: window w is issued when window
// w − 2 finished programming, so one window's copy-out reads overlap the
// previous window's programs, and the pages staged in controller DRAM
// between copy-out and copy-in never exceed 2 × Channels blocks. The
// per-channel die timelines in internal/flash serialize whatever truly
// shares a die — work booked here for a future time is a reservation
// that leaves the die usable until then; with takeFree rotating
// destinations over the channels, a window's program bursts land on
// different dies and overlap. The firmware still handles one window
// after another: only the timestamps overlap.
//
// GC's flash traffic completes at d.gcHorizon, the latest completion of
// the run; the next flush stalls behind it (and behind its own program
// backlog), which is how GC time surfaces in per-request service time
// instead of vanishing.
func (d *Device) runGC(t time.Duration, minFree int, bestEffort bool) error {
	if bestEffort {
		minFree = min(minFree, d.reachableFree()-1)
	}
	if len(d.free) >= minFree {
		return nil
	}
	d.stats.GCRuns++
	// programmed[w%2] is when window w − 2 finished programming.
	var programmed [2]time.Duration
	for w := 0; len(d.free) < minFree; w++ {
		issued := max(t, programmed[w%2])
		d.openWindow()
		readsDone := issued
		for len(d.gcVictims) < d.cfg.Flash.Channels {
			victim, ok := d.victims.pickVictim()
			if !ok {
				break
			}
			done, err := d.copyOut(victim, issued)
			if err != nil {
				return err
			}
			readsDone = max(readsDone, done)
			need := d.destBlocks()
			if len(d.free)+len(d.gcVictims)-need >= minFree || len(d.free)-need < 1 {
				break
			}
		}
		if len(d.gcVictims) == 0 {
			if bestEffort {
				return nil
			}
			return fmt.Errorf("ssd: GC found no victim that frees space (free=%d)", len(d.free))
		}
		p, _, err := d.reclaim(issued, readsDone, false)
		if err != nil {
			return err
		}
		programmed[w%2] = p
	}
	return nil
}

// reachableFree returns how many blocks would be free if every victim
// candidate were reclaimed: the free pool, plus the candidates' stale
// pages and the room left in the open GC destination block, in whole
// blocks.
func (d *Device) reachableFree() int {
	ppb := d.cfg.Flash.PagesPerBlock
	room := d.victims.invalidPages()
	if d.gcLane.open {
		room += ppb - d.gcLane.next
	}
	return len(d.free) + room/ppb
}

// relocate moves one block — wear leveling, scrubbing and retirement —
// through reclaim as a one-victim window issued at t, returning when its
// erase (or retirement) completed.
func (d *Device) relocate(b flash.BlockID, t time.Duration, retire bool) (time.Duration, error) {
	d.openWindow()
	readsDone, err := d.copyOut(b, t)
	if err != nil {
		return 0, err
	}
	_, done, err := d.reclaim(t, readsDone, retire)
	return done, err
}

// openWindow empties the window's victim list and page pool; their
// storage is reused from window to window.
func (d *Device) openWindow() {
	d.gcVictims = d.gcVictims[:0]
	d.gcPages = d.gcPages[:0]
}

// copyOut adds victim to the window and reads its valid pages into the
// pool, issued at t. It returns when the last read completed: the pages
// must be in the controller's DRAM before they can be written back.
//
// The reads run under the fault model. A data UECC destroys the page's
// payload: if the newest copy lives in the write buffer only the stale
// flash copy died, otherwise the LPA is lost (reads return *UECCError
// until the host rewrites it). An OOB UECC leaves the payload intact but
// the reverse mapping unreadable; it is rebuilt from a sibling's OOB
// window, falling back to the simulator's oracle as a stand-in for the
// per-block P2L journal real controllers keep.
func (d *Device) copyOut(victim flash.BlockID, t time.Duration) (time.Duration, error) {
	d.victims.remove(victim)
	d.gcVictims = append(d.gcVictims, victim)
	first := d.cfg.Flash.FirstPPA(victim)
	readsDone := t
	for i := 0; i < d.cfg.Flash.PagesPerBlock; i++ {
		ppa := first + addr.PPA(i)
		if !d.valid[ppa] {
			continue
		}
		tok, lpa, done, err := d.arr.Read(ppa, t)
		if done > readsDone {
			readsDone = done
		}
		if err != nil {
			switch {
			case errors.Is(err, flash.ErrUncorrectable):
				// Payload gone. The reverse mapping may be gone with it;
				// the oracle stands in for the controller's P2L journal.
				l := lpa
				if l == addr.InvalidLPA {
					l = d.arr.Reverse(ppa)
				}
				if d.buffered[l] {
					d.invalidate(l) // newest data is in RAM; only a stale-bound copy died
				} else {
					d.loseLPA(l)
					d.stats.GCDataLoss++
				}
				continue
			case errors.Is(err, flash.ErrOOBUncorrectable):
				rev, t2 := d.reconstructReverse(ppa, readsDone)
				if t2 > readsDone {
					readsDone = t2
				}
				if rev == addr.InvalidLPA {
					rev = d.arr.Reverse(ppa) // P2L-journal stand-in
				}
				lpa = rev
			default:
				return 0, err
			}
		}
		d.gcPages = append(d.gcPages, movedPage{lpa: lpa, tok: tok})
	}
	return readsDone, nil
}

// destBlocks returns how many fresh destination blocks programming the
// pooled pages will open: the GC lane needs them only for the pages its
// open block has no room left for.
func (d *Device) destBlocks() int {
	ppb := d.cfg.Flash.PagesPerBlock
	pages := len(d.gcPages)
	if d.gcLane.open {
		pages -= ppb - d.gcLane.next
	}
	if pages <= 0 {
		return 0
	}
	return (pages + ppb - 1) / ppb
}

// reclaim is the one relocation function: GC windows, wear leveling,
// scrubbing and retirement all move blocks through it. It programs the
// window's pooled pages — copied out by copyOut, issued at issued, the
// last read done at readsDone — into the GC destination lane, then
// erases every victim back into the free pool (GC, scrubbing, wear
// leveling) or retires it (retire=true, and forced for grown-bad blocks
// and erase failures: the block is never erased, never freed, and drops
// out of rotation). Relocation is charged like any other flash traffic:
// the copy-in programs start only once the last read has returned, and
// the erases follow the window's last program. It returns when the last
// relocation program completed (programmed: the staged pages have left
// controller DRAM) and when the last erase did (finished; equal to
// programmed when every victim was retired unerased).
//
// reclaim is also the only writer of the GC horizon: it rises to the
// window's completion, and GCTime grows by the part of [issued,
// finished] the horizon did not already cover. Overlapping windows thus
// add up to the span they occupy together (a GC run: its latest
// completion minus its start) instead of being counted once each, and
// since a flush only ever stalls below gcHorizon, GCStall ≤ GCTime holds
// whichever background move caused the wait.
func (d *Device) reclaim(issued, readsDone time.Duration, retire bool) (programmed, finished time.Duration, _ error) {
	pages := d.gcPages
	d.crashPoint("gc.read")
	// Sort by LPA so relocated runs stay learnable (§3.6: "place these
	// valid pages into the DRAM buffer, sort them by their LPAs, and
	// learn a new index segment"), across the whole window. The pooled
	// pages hold distinct LPAs, so the order is fully determined.
	d.gcSort = sortByLPA(pages, d.gcSort)

	writeT := readsDone
	lastDone := readsDone
	// The scheme only borrows a committed batch, so the buffer is
	// truncated and refilled rather than reallocated.
	d.gcPairs = d.gcPairs[:0]
	// GC relocation is the one moment the drive holds an LPA-sorted run
	// of a group's pages next to a sequential destination — a relearning
	// scheme re-fits the affected groups from it (LearnedFTL-style
	// GC-time retraining); for everyone else CommitGC is plain Commit.
	relearner, _ := d.scheme.(ftl.GCRelearner)
	flushPairs := func() {
		if len(d.gcPairs) == 0 {
			return
		}
		if relearner != nil {
			cost, n := relearner.CommitGC(d.gcPairs)
			d.stats.Relearns += uint64(n)
			d.chargeMeta(cost, writeT)
		} else {
			d.chargeMeta(d.scheme.Commit(d.gcPairs), writeT)
		}
		d.gcPairs = d.gcPairs[:0]
	}
	// One pass over the sorted pool: every committed batch is an
	// ascending LPA run onto ascending PPAs of one destination block (the
	// scheme contract).
	for _, pg := range pages {
		attempts := 0
		for {
			ppa, fresh, err := d.gcDest()
			if err != nil {
				return 0, 0, err
			}
			if fresh {
				// Destination block changed: PPAs would jump backwards or
				// across blocks, so commit the accumulated ascending run.
				flushPairs()
			}
			done, werr := d.arr.Write(ppa, pg.lpa, pg.tok, writeT)
			if done > lastDone {
				lastDone = done
			}
			if werr != nil {
				// The destination burned a page: condemn it, commit the run
				// it holds, and retry on a fresh block.
				attempts++
				if attempts >= maxProgramAttempts {
					return 0, 0, fmt.Errorf("ssd: GC relocation of LPA %d failed to program on %d consecutive blocks: %w",
						pg.lpa, attempts, werr)
				}
				flushPairs()
				d.gcLane.open = false
				d.abandonBadBlock(d.gcLane.block)
				continue
			}
			d.invalidate(pg.lpa)
			d.truth[pg.lpa] = ppa
			d.valid[ppa] = true
			d.bvc[d.cfg.Flash.BlockOf(ppa)]++
			d.gcPairs = append(d.gcPairs, addr.Mapping{LPA: pg.lpa, PPA: ppa})
			d.stats.GCPagesMoved++
			d.sealIfFull()
			break
		}
	}
	flushPairs()
	d.crashPoint("gc.programmed")
	programmed, finished = lastDone, lastDone
	for _, victim := range d.gcVictims {
		done, err := d.eraseVictim(victim, lastDone, retire || d.bad[victim])
		if err != nil {
			return 0, 0, err
		}
		finished = max(finished, done)
		if d.reclaimHook != nil {
			d.reclaimHook(victim, issued, programmed, done)
		}
	}
	if finished > d.gcHorizon {
		d.stats.GCTime += finished - max(issued, d.gcHorizon)
		d.gcHorizon = finished
	}
	return programmed, finished, nil
}

// eraseVictim erases a relocated victim at t back into the free pool,
// or retires it: when retire is set, or when the erase fails. Its pages
// are all stale by now, so retirement loses nothing — the block simply
// never rejoins the pool. It returns when the erase completed (t for a
// block retired unerased).
func (d *Device) eraseVictim(victim flash.BlockID, t time.Duration, retire bool) (time.Duration, error) {
	finished := t
	if !retire {
		eraseDone, err := d.arr.Erase(victim, t)
		if err == nil {
			d.bvc[victim] = 0
			d.blockSeq[victim] = 0
			d.free = append(d.free, victim)
			d.isFree[victim] = true
			d.stats.GCErases++
			d.crashPoint("gc.erased")
			return eraseDone, nil
		}
		if !errors.Is(err, flash.ErrEraseFail) {
			return 0, err
		}
		finished = eraseDone
	}
	// Retirement: the block keeps its stale contents (never erased) and
	// drops out of every structure — not free, no allocation sequence,
	// no victim-index entry.
	if !d.bad[victim] {
		d.bad[victim] = true
		d.stats.RetiredBlocks++
	}
	d.bvc[victim] = 0
	d.blockSeq[victim] = 0
	d.crashPoint("gc.retired")
	return finished, nil
}

// gcDest returns the next destination PPA for a GC move, opening a new
// block when the lane has none: takeFree's next block in channel
// rotation, so successive destinations land on different channels.
// fresh reports a block switch.
func (d *Device) gcDest() (addr.PPA, bool, error) {
	st := &d.gcLane
	fresh := false
	if !st.open {
		b, ok := d.takeFree()
		if !ok {
			return 0, false, fmt.Errorf("ssd: GC needs a destination block but none are free")
		}
		*st = destLane{open: true, block: b}
		fresh = true
	}
	ppa := d.cfg.Flash.FirstPPA(st.block) + addr.PPA(st.next)
	st.next++
	return ppa, fresh, nil
}

// sealIfFull closes the GC lane when its block just filled, entering it
// into the victim index (it is from now on fair game for reclaim, like
// any flushed block).
func (d *Device) sealIfFull() {
	st := &d.gcLane
	if !st.open || st.next < d.cfg.Flash.PagesPerBlock {
		return
	}
	d.victims.add(st.block, d.bvc[st.block])
	st.open = false
}

// isOpenDest reports whether b is an open destination block — the GC
// lane's or the flush lane's — still accepting programs, so neither a
// victim candidate nor fair game for the scrub/retire sweeps.
func (d *Device) isOpenDest(b flash.BlockID) bool {
	return d.gcLane.open && d.gcLane.block == b ||
		d.flushLane.open && d.flushLane.block == b
}

// maybeWearLevel migrates the coldest block when the erase-count spread
// exceeds the configured delta (§3.6: throttle-and-swap; cold data moves
// so young blocks rejoin the hot rotation).
func (d *Device) maybeWearLevel(t time.Duration) error {
	if d.cfg.WearDelta == 0 {
		return nil
	}
	var (
		minErase, maxErase uint32
		coldest            flash.BlockID
		haveCold           bool
		first              = true
	)
	for b := 0; b < d.cfg.Flash.Blocks(); b++ {
		e := d.arr.EraseCount(flash.BlockID(b))
		if first {
			minErase, maxErase = e, e
			first = false
		}
		if e < minErase {
			minErase = e
		}
		if e > maxErase {
			maxErase = e
		}
		// Cold candidate: allocated, healthy, holds data, low erase count.
		if !d.isFree[b] && d.blockSeq[b] != 0 && d.bvc[b] > 0 &&
			!d.bad[b] && !d.isOpenDest(flash.BlockID(b)) {
			if !haveCold || e < d.arr.EraseCount(coldest) {
				coldest = flash.BlockID(b)
				haveCold = true
			}
		}
	}
	if !haveCold || maxErase-minErase <= d.cfg.WearDelta {
		return nil
	}
	if len(d.free) == 0 {
		return nil // defer; GC will free space first
	}
	d.stats.WearMoves++
	_, err := d.relocate(coldest, t, false)
	return err
}
