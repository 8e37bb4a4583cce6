// Package flash models the NAND flash array inside the simulated SSD:
// geometry (channels → blocks → pages), operation latencies, per-block
// erase counting, and the out-of-band (OOB) metadata area LeaFTL uses to
// store reverse mappings (paper §2, §3.5, Table 1).
//
// The model is deliberately first-order: each die (channel × die) is a
// timeline of busy spans (timeline.go), and every cell operation occupies
// its die for the operation's nominal latency. A program or erase takes
// the earliest idle gap at or after its issue time that fits it; with
// nothing booked ahead that is the plain queue behind the die's backlog.
// Work booked for a future time (GC erases and copies) keeps its slot
// and leaves the die idle until then: a 20µs read runs in front of it, a
// 200µs program that does not fit before it goes after it. A read waits
// out an erase or another read, suspends a program run after at most one
// tPROG, and slides whatever is booked behind it later by tR.
//
// Queue order no longer orders a block's own operations, so the array
// states the NAND rules itself: a page program starts no earlier than
// its block's latest erase completed, and no earlier than the block's
// previous program started (multi-plane partners start together); an
// erase likewise waits for the block's last program to complete. Each
// die keeps its last maxSpans spans; older ones retire into a floor
// before which nothing starts, so forgetting history can only delay a
// later operation, never advance it.
//
// With DiesPerChan or PlanesPerDie above one, the channel bus becomes a
// separate, shorter transfer-occupancy resource (BusXfer per page; its
// horizon stays one scalar per channel — transfers are FIFO), programs
// to distinct planes of one die can join a multi-plane window, and
// completions across dies are naturally out of order. With one die and
// one plane per channel and nothing booked ahead the arithmetic reduces
// exactly to the original per-channel scalar-horizon model. This
// reproduces the contention effects the paper's evaluation depends on
// (flush and GC traffic delaying reads) without a full event-driven
// simulator; docs/ARCHITECTURE.md ("Simulation clock") records the
// substitution for WiscSim.
package flash

import (
	"fmt"
	"time"

	"leaftl/internal/addr"
)

// Config describes the flash geometry and timing (paper Table 1).
type Config struct {
	Channels      int           // independent flash channels
	BlocksPerChan int           // erase blocks per channel
	PagesPerBlock int           // flash pages per erase block
	PageSize      int           // bytes per page (data area)
	OOBSize       int           // bytes of out-of-band metadata per page
	ReadLatency   time.Duration // page read (20µs in Table 1)
	WriteLatency  time.Duration // page program (200µs)
	EraseLatency  time.Duration // block erase (1.5ms)

	// DiesPerChan is the number of NAND dies (LUNs) sharing each channel
	// bus. Zero or one keeps the original one-timeline-per-channel model;
	// above one, cell operations occupy only their die and the channel
	// bus carries per-page transfers (BusXfer).
	DiesPerChan int
	// PlanesPerDie enables multi-plane programs: programs to distinct
	// planes of one die issued while a program window is open complete
	// together. Zero or one disables plane interleave.
	PlanesPerDie int
	// BusXfer is the channel-bus occupancy of moving one page between
	// controller and die. Only charged when the geometry is die-aware
	// (DiesPerChan or PlanesPerDie above one); zero defaults to
	// ReadLatency/4.
	BusXfer time.Duration

	// Fault selects the seeded reliability model (see fault.go). The
	// zero value is perfect flash.
	Fault FaultConfig
}

// SimulatorDefaults mirrors the paper's Table 1 geometry with capacity
// scaled down: 16 channels, 4KB pages, 256 pages/block, 128B OOB,
// 20µs/200µs/1.5ms latencies.
func SimulatorDefaults() Config {
	return Config{
		Channels:      16,
		BlocksPerChan: 256,
		PagesPerBlock: 256,
		PageSize:      4096,
		OOBSize:       128,
		ReadLatency:   20 * time.Microsecond,
		WriteLatency:  200 * time.Microsecond,
		EraseLatency:  1500 * time.Microsecond,
	}
}

// PrototypeDefaults mirrors the paper's open-channel SSD prototype
// (§3.9): 16KB pages, 16 channels, 256 pages per block.
func PrototypeDefaults() Config {
	c := SimulatorDefaults()
	c.PageSize = 16384
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("flash: Channels = %d, must be positive", c.Channels)
	case c.BlocksPerChan <= 0:
		return fmt.Errorf("flash: BlocksPerChan = %d, must be positive", c.BlocksPerChan)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock = %d, must be positive", c.PagesPerBlock)
	case c.PageSize <= 0:
		return fmt.Errorf("flash: PageSize = %d, must be positive", c.PageSize)
	case c.TotalPages() > int(addr.InvalidPPA):
		return fmt.Errorf("flash: %d pages exceed the PPA space", c.TotalPages())
	case c.DiesPerChan < 0:
		return fmt.Errorf("flash: DiesPerChan = %d, must be non-negative", c.DiesPerChan)
	case c.PlanesPerDie < 0:
		return fmt.Errorf("flash: PlanesPerDie = %d, must be non-negative", c.PlanesPerDie)
	case c.Dies() > 1 && c.BlocksPerChan%c.Dies() != 0:
		return fmt.Errorf("flash: BlocksPerChan = %d not divisible by DiesPerChan = %d", c.BlocksPerChan, c.Dies())
	case c.Planes() > 1 && c.PagesPerBlock%c.Planes() != 0:
		return fmt.Errorf("flash: PagesPerBlock = %d not divisible by PlanesPerDie = %d", c.PagesPerBlock, c.Planes())
	case c.Planes() > 32:
		return fmt.Errorf("flash: PlanesPerDie = %d exceeds 32", c.Planes())
	case c.BusXfer < 0:
		return fmt.Errorf("flash: BusXfer = %v, must be non-negative", c.BusXfer)
	}
	return c.Fault.Validate()
}

// Dies returns the dies per channel, normalizing 0 to 1.
func (c Config) Dies() int {
	if c.DiesPerChan > 1 {
		return c.DiesPerChan
	}
	return 1
}

// Planes returns the planes per die, normalizing 0 to 1.
func (c Config) Planes() int {
	if c.PlanesPerDie > 1 {
		return c.PlanesPerDie
	}
	return 1
}

// Units returns the number of independent service timelines
// (channels × dies): blocks stripe over units exactly as they striped
// over channels before, so unit u serves block b iff b % Units() == u
// and ChannelOf is unchanged (b % (C·D) ≡ b (mod C)).
func (c Config) Units() int { return c.Channels * c.Dies() }

// UnitOfBlock returns the die timeline serving block b.
func (c Config) UnitOfBlock(b BlockID) int {
	return int(uint32(b) % uint32(c.Units()))
}

// UnitOf returns the die timeline serving ppa.
func (c Config) UnitOf(ppa addr.PPA) int { return c.UnitOfBlock(c.BlockOf(ppa)) }

// DieOfBlock returns block b's die index within its channel
// (0 ≤ die < Dies()).
func (c Config) DieOfBlock(b BlockID) int { return c.UnitOfBlock(b) / c.Channels }

// PlaneOf returns ppa's plane within its die. A block spans all planes
// of its die with consecutive page offsets alternating planes, so
// sequential programs naturally form multi-plane pairs.
func (c Config) PlaneOf(ppa addr.PPA) int { return c.PageOf(ppa) % c.Planes() }

// dieAware reports whether the bus/cell split and plane windows are
// active. When false, timing is the original per-channel arithmetic.
func (c Config) dieAware() bool { return c.Dies() > 1 || c.Planes() > 1 }

// busXfer returns the effective per-page bus occupancy.
func (c Config) busXfer() time.Duration {
	if c.BusXfer > 0 {
		return c.BusXfer
	}
	return c.ReadLatency / 4
}

// Blocks returns the total number of erase blocks.
func (c Config) Blocks() int { return c.Channels * c.BlocksPerChan }

// TotalPages returns the total number of flash pages.
func (c Config) TotalPages() int { return c.Blocks() * c.PagesPerBlock }

// CapacityBytes returns the raw capacity.
func (c Config) CapacityBytes() int64 {
	return int64(c.TotalPages()) * int64(c.PageSize)
}

// OOBEntries returns how many 4-byte reverse-mapping entries fit in one
// page's OOB area (paper §3.5: 32–64 for 128–256B OOBs).
func (c Config) OOBEntries() int { return c.OOBSize / 4 }

// BlockID identifies an erase block, numbered channel-major:
// block b lives on channel b % Channels.
type BlockID uint32

// BlockOf returns the erase block containing ppa.
func (c Config) BlockOf(ppa addr.PPA) BlockID {
	return BlockID(uint32(ppa) / uint32(c.PagesPerBlock))
}

// ChannelOfBlock returns the channel serving block b.
func (c Config) ChannelOfBlock(b BlockID) int {
	return int(uint32(b) % uint32(c.Channels))
}

// ChannelOf returns the channel serving ppa.
func (c Config) ChannelOf(ppa addr.PPA) int { return c.ChannelOfBlock(c.BlockOf(ppa)) }

// PageOf returns ppa's page index within its block.
func (c Config) PageOf(ppa addr.PPA) int {
	return int(uint32(ppa) % uint32(c.PagesPerBlock))
}

// FirstPPA returns the first page of block b.
func (c Config) FirstPPA(b BlockID) addr.PPA {
	return addr.PPA(uint32(b) * uint32(c.PagesPerBlock))
}

// Stats counts physical flash operations; the write amplification factor
// (paper Figure 25) and all latency modelling derive from these. The
// reliability counters stay zero on perfect flash.
type Stats struct {
	PageReads   uint64
	PageWrites  uint64
	BlockErases uint64

	// Reliability counters (fault injection).
	CorrectedReads uint64 // reads that needed any ECC correction
	ECCRetries     uint64 // read-retry rounds charged on the channels
	DataUECC       uint64 // data-area reads beyond the soft-decode budget
	OOBUECC        uint64 // OOB-area decodes beyond the (scaled) budget
	ProgramFails   uint64 // failed page programs (burned pages)
	EraseFails     uint64 // failed block erases
}

// progWindow is one die's open multi-plane program window: programs to
// distinct planes of the die that arrive while the window's program is
// still the last thing booked on the die complete together with it (any
// other operation on the die closes the window).
type progWindow struct {
	done      time.Duration // completion of the joint program
	planeMask uint32        // planes already claimed
	count     int           // programs joined so far
}

// Array is the simulated flash array. It stores, per page, an opaque
// 8-byte payload token standing in for page contents (enough for
// end-to-end integrity checking without 4KB of host memory per page) and
// the OOB reverse mapping, plus per-block erase counts and per-die
// service timelines.
//
// Array enforces NAND ordering rules: a page must be free to be
// programmed, pages within a block must be programmed in order, and only
// whole blocks are erased.
type Array struct {
	cfg Config
	// units and dieAware cache cfg.Units() and cfg.dieAware() for the
	// per-operation path: Config's accessors take the 208-byte struct by
	// value, and the nested ones copy it at every level.
	units    uint32
	dieAware bool

	token   []uint64   // page payload stand-in
	reverse []addr.LPA // OOB reverse mapping (written LPA per page)
	seq     []uint64   // OOB write sequence number (crash recovery)
	seqGen  uint64     // monotonic write-sequence generator
	written []bool     // page has been programmed since last erase
	nextPg  []int      // next programmable page index per block
	erases  []uint32   // per-block erase count (wear leveling)
	dies    []timeline // per-die unit: busy spans (timeline.go)
	// blockReady is the earliest each block's next page program may start:
	// the completion of its latest erase, then the start of its previous
	// program (an erase waits one tPROG longer, for that program to end).
	// The die's queue order used to imply this; a timeline that back-fills
	// gaps does not.
	blockReady []time.Duration
	// busBusy is the per-channel bus-transfer horizon (a scalar: bus
	// transfers are short and served in issue order); only used when the
	// geometry is die-aware.
	busBusy []time.Duration
	// progWin is each die's open multi-plane program window; only used
	// when the geometry is die-aware.
	progWin []progWindow
	stats   Stats

	// Reliability state: per-block read counts since the last erase
	// (read disturb), per-page program times (retention aging), and the
	// seeded fault model (nil on perfect flash).
	blockReads []uint32
	progAt     []time.Duration
	fault      *faultModel

	// observe, when set, sees the cell window of every data-block program
	// and erase (see Observe).
	observe func(b BlockID, erase bool, start, done time.Duration)
}

// NewArray allocates a fully-erased flash array.
func NewArray(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.TotalPages()
	dies := make([]timeline, cfg.Units())
	for u := range dies {
		dies[u] = newTimeline(maxSpans)
	}
	return &Array{
		cfg:        cfg,
		units:      uint32(cfg.Units()),
		dieAware:   cfg.dieAware(),
		token:      make([]uint64, n),
		reverse:    make([]addr.LPA, n),
		seq:        make([]uint64, n),
		written:    make([]bool, n),
		nextPg:     make([]int, cfg.Blocks()),
		erases:     make([]uint32, cfg.Blocks()),
		dies:       dies,
		blockReady: make([]time.Duration, cfg.Blocks()),
		busBusy:    make([]time.Duration, cfg.Channels),
		progWin:    make([]progWindow, cfg.Units()),
		blockReads: make([]uint32, cfg.Blocks()),
		progAt:     make([]time.Duration, n),
		fault:      newFaultModel(cfg.Fault),
	}, nil
}

// Config returns the array's geometry.
func (a *Array) Config() Config { return a.cfg }

// Stats returns operation counters.
func (a *Array) Stats() Stats { return a.stats }

// Observe installs fn to be called with the die-occupancy window
// [start, done) of every data-block page program (erase=false) and block
// erase (erase=true), failed ones included. Tests audit NAND ordering
// across overlapping background traffic with it — no page of a block may
// start programming before that block's latest erase has completed; nil
// (the default) disables.
func (a *Array) Observe(fn func(b BlockID, erase bool, start, done time.Duration)) {
	a.observe = fn
}

// EraseCount returns how many times block b has been erased.
func (a *Array) EraseCount(b BlockID) uint32 { return a.erases[b] }

// unitOf returns the die timeline serving block b (cfg.UnitOfBlock).
func (a *Array) unitOf(b BlockID) int { return int(uint32(b) % a.units) }

// book charges one program or erase of the given latency on die unit u,
// in the earliest idle gap at or after ready that fits it.
func (a *Array) book(u int, ready, latency time.Duration, kind spanKind) time.Duration {
	a.progWin[u] = progWindow{}
	return a.dies[u].book(ready, latency, kind)
}

// serveRead charges a read's cell time on die unit u (timeline.read):
// modern NAND lets a read suspend a program burst, so a read waits for
// at most one in-flight program rather than the die's whole write
// backlog, but never starts mid-erase. The read still occupies the die
// for its own latency, so reads that jump the same backlog queue behind
// each other: k reads issued together finish tR apart, not all at once.
func (a *Array) serveRead(u int, now time.Duration) time.Duration {
	a.progWin[u] = progWindow{}
	return a.dies[u].read(now, a.cfg.ReadLatency, a.cfg.WriteLatency)
}

// chargeRetries extends a read by whole-page retry rounds on its own
// die: each round re-senses the page right where the first attempt
// finished, so the rounds run back to back from the read's own
// completion and push whatever is booked behind it by the same amount.
// (They do not re-enter channel arbitration: a retry behind a queued
// erase must not re-pay the erase wait per round.)
func (a *Array) chargeRetries(u int, done time.Duration, retries int) time.Duration {
	if retries == 0 {
		return done
	}
	return a.dies[u].extend(done, time.Duration(retries)*a.cfg.ReadLatency)
}

// busTransfer charges one page movement on ch's channel bus starting no
// earlier than ready; die-aware geometry only.
func (a *Array) busTransfer(ch int, ready time.Duration) time.Duration {
	start := ready
	if a.busBusy[ch] > start {
		start = a.busBusy[ch]
	}
	done := start + a.cfg.busXfer()
	a.busBusy[ch] = done
	return done
}

// serveWrite charges one page program, starting no earlier than the
// block allows (blockReady). In the die-aware geometry the page's data
// first crosses the channel bus, then programs the cell on its die —
// unless the die has an open multi-plane window (its last program is
// still the last thing booked on the die, this page's plane is free, the
// window completes after the transfer and starts no earlier than the
// block allows), in which case the program joins the window and
// completes with it: the idealized multi-plane interleave that lets
// back-to-back programs to alternating planes finish Planes() pages per
// WriteLatency.
func (a *Array) serveWrite(ppa addr.PPA, b BlockID, now time.Duration) time.Duration {
	u := a.unitOf(b)
	ready, tPROG := now, a.cfg.WriteLatency
	w, plane := &a.progWin[u], uint32(0)
	if a.dieAware {
		ready = a.busTransfer(a.cfg.ChannelOfBlock(b), now)
		plane = 1 << uint(a.cfg.PlaneOf(ppa))
		if w.count > 0 && w.count < a.cfg.Planes() && w.planeMask&plane == 0 &&
			ready <= w.done && a.blockReady[b] <= w.done-tPROG {
			w.count++
			w.planeMask |= plane
			a.blockReady[b] = w.done - tPROG
			return w.done
		}
	}
	done := a.book(u, max(ready, a.blockReady[b]), tPROG, kindProgram)
	*w = progWindow{done: done, planeMask: plane, count: 1} // only ever joined when die-aware
	a.blockReady[b] = done - tPROG
	return done
}

// sampleRead runs the fault model for one page read: charges retry
// rounds on die unit u (each a full page-read latency extending the
// read's own completion), counts correction stats, and reports whether
// the data and/or OOB region is uncorrectable. Unwritten (erased) pages
// never fault.
func (a *Array) sampleRead(ppa addr.PPA, u int, done time.Duration, wantData, wantOOB bool) (time.Duration, bool, bool) {
	if a.fault == nil || !a.written[ppa] {
		return done, false, false
	}
	b := a.cfg.BlockOf(ppa)
	rber := a.fault.rber(a.erases[b], a.busyAge(ppa, done), a.blockReads[b])
	dataBits := a.cfg.PageSize * 8
	oobBits := a.cfg.OOBSize * 8
	retries, corrected := 0, false
	var dataUECC, oobUECC bool
	if wantData {
		r, c, u := a.fault.readOutcome(rber, dataBits, a.fault.cfg.ECCHardBits, a.fault.cfg.ECCSoftBits)
		retries, corrected, dataUECC = retries+r, corrected || c, u
	}
	if wantOOB {
		hard, soft := a.fault.oobBudget(dataBits, oobBits)
		r, c, u := a.fault.readOutcome(rber, oobBits, hard, soft)
		retries, corrected, oobUECC = retries+r, corrected || c, u
	}
	done = a.chargeRetries(u, done, retries)
	a.stats.ECCRetries += uint64(retries)
	if corrected && !dataUECC && !oobUECC {
		a.stats.CorrectedReads++
	}
	if dataUECC {
		a.stats.DataUECC++
	}
	if oobUECC {
		a.stats.OOBUECC++
	}
	return done, dataUECC, oobUECC
}

// busyAge returns how long ago ppa was programmed, on the simulated
// clock (0 for unwritten pages or clock skew).
func (a *Array) busyAge(ppa addr.PPA, now time.Duration) time.Duration {
	if !a.written[ppa] || now <= a.progAt[ppa] {
		return 0
	}
	return now - a.progAt[ppa]
}

// Read returns the page payload token and its OOB reverse-mapping LPA.
// done is when the read completes on the page's channel, including any
// charged ECC read-retry rounds. err is nil (possibly after silent
// correction), ErrUncorrectable (data area lost — token is invalid), or
// ErrOOBUncorrectable (token intact, reverse mapping lost and returned
// as InvalidLPA).
func (a *Array) Read(ppa addr.PPA, now time.Duration) (token uint64, reverse addr.LPA, done time.Duration, err error) {
	a.stats.PageReads++
	a.blockReads[a.cfg.BlockOf(ppa)]++
	u := a.unitOf(a.cfg.BlockOf(ppa))
	done = a.serveRead(u, now)
	done, dataUECC, oobUECC := a.sampleRead(ppa, u, done, true, true)
	if a.dieAware {
		done = a.busTransfer(a.cfg.ChannelOf(ppa), done)
	}
	switch {
	case dataUECC:
		return 0, addr.InvalidLPA, done, fmt.Errorf("%w: PPA %d", ErrUncorrectable, ppa)
	case oobUECC:
		return a.token[ppa], addr.InvalidLPA, done, fmt.Errorf("%w: PPA %d", ErrOOBUncorrectable, ppa)
	}
	return a.token[ppa], a.reverse[ppa], done, nil
}

// ReadOOB models a read that only needs the OOB area; it costs a full
// page read (NAND reads whole pages) but returns just the reverse LPA.
// Only the OOB region is ECC-decoded.
func (a *Array) ReadOOB(ppa addr.PPA, now time.Duration) (addr.LPA, time.Duration, error) {
	a.stats.PageReads++
	a.blockReads[a.cfg.BlockOf(ppa)]++
	u := a.unitOf(a.cfg.BlockOf(ppa))
	done := a.serveRead(u, now)
	done, _, oobUECC := a.sampleRead(ppa, u, done, false, true)
	if a.dieAware {
		done = a.busTransfer(a.cfg.ChannelOf(ppa), done)
	}
	if oobUECC {
		return addr.InvalidLPA, done, fmt.Errorf("%w: PPA %d", ErrOOBUncorrectable, ppa)
	}
	return a.reverse[ppa], done, nil
}

// Write programs a free page with the payload token and OOB reverse
// mapping. Programming a non-free or out-of-order page panics: the FTL
// above must never do that, and a panic here is a broken-invariant
// signal, not an I/O error. A program can fail with wear-growing
// probability under the fault model (ErrProgramFail): the page is
// burned — it counts as written, holds no usable data, and its OOB is
// nulled so recovery scans skip it — and the layer above must retire
// the block and re-program the data elsewhere. Failed programs still
// occupy the channel for the program latency.
func (a *Array) Write(ppa addr.PPA, lpa addr.LPA, token uint64, now time.Duration) (time.Duration, error) {
	b := a.cfg.BlockOf(ppa)
	pg := a.cfg.PageOf(ppa)
	if a.written[ppa] {
		panic(fmt.Sprintf("flash: program of written page %d", ppa))
	}
	if pg != a.nextPg[b] {
		panic(fmt.Sprintf("flash: out-of-order program: block %d page %d, expected %d", b, pg, a.nextPg[b]))
	}
	a.nextPg[b] = pg + 1
	a.written[ppa] = true
	a.progAt[ppa] = now
	done := a.serveWrite(ppa, b, now)
	if a.observe != nil {
		a.observe(b, false, done-a.cfg.WriteLatency, done)
	}
	if a.fault != nil && a.fault.opFails(a.fault.cfg.ProgramFailBase, a.fault.cfg.ProgramFailWear, a.erases[b]) {
		a.token[ppa] = 0
		a.reverse[ppa] = addr.InvalidLPA
		a.seq[ppa] = 0
		a.stats.ProgramFails++
		return done, fmt.Errorf("%w: PPA %d", ErrProgramFail, ppa)
	}
	a.token[ppa] = token
	a.reverse[ppa] = lpa
	a.seqGen++
	a.seq[ppa] = a.seqGen
	a.stats.PageWrites++
	return done, nil
}

// Erase wipes block b, making its pages programmable again. An erase
// can fail with wear-growing probability (ErrEraseFail): the block
// keeps its stale contents and must be retired by the layer above.
func (a *Array) Erase(b BlockID, now time.Duration) (time.Duration, error) {
	ready := a.blockReady[b]
	if a.nextPg[b] > 0 {
		ready += a.cfg.WriteLatency // its last program must have completed
	}
	done := a.book(a.unitOf(b), max(now, ready), a.cfg.EraseLatency, kindErase)
	a.blockReady[b] = done
	if a.observe != nil {
		a.observe(b, true, done-a.cfg.EraseLatency, done)
	}
	if a.fault != nil && a.fault.opFails(a.fault.cfg.EraseFailBase, a.fault.cfg.EraseFailWear, a.erases[b]) {
		a.stats.EraseFails++
		a.erases[b]++ // the cycle was attempted; it wears the block
		return done, fmt.Errorf("%w: block %d", ErrEraseFail, b)
	}
	first := a.cfg.FirstPPA(b)
	for i := 0; i < a.cfg.PagesPerBlock; i++ {
		p := first + addr.PPA(i)
		a.written[p] = false
		a.token[p] = 0
		a.reverse[p] = addr.InvalidLPA
		a.seq[p] = 0
		a.progAt[p] = 0
	}
	a.nextPg[b] = 0
	a.erases[b]++
	a.blockReads[b] = 0
	a.stats.BlockErases++
	return done, nil
}

// Written reports whether ppa currently holds programmed data.
func (a *Array) Written(ppa addr.PPA) bool { return a.written[ppa] }

// Reverse returns the OOB reverse-mapping LPA of ppa without charging a
// flash access. Device code must not use this on the data path — it
// exists for recovery scans (which charge reads themselves) and tests.
func (a *Array) Reverse(ppa addr.PPA) addr.LPA {
	if !a.written[ppa] {
		return addr.InvalidLPA
	}
	return a.reverse[ppa]
}

// BusyUntil returns when the last thing booked on die unit u completes
// (for tests; the die may well be idle before then). With one die per
// channel, unit indices coincide with channel indices.
func (a *Array) BusyUntil(u int) time.Duration { return a.dies[u].busyUntil() }

// CheckTimelines audits every die's timeline: spans sorted, disjoint,
// merged and not before the floor, and per die the spans still listed
// plus the ones retired add up to exactly the latency ever booked — no
// die time lost or double-booked.
func (a *Array) CheckTimelines() error {
	for u := range a.dies {
		if err := a.dies[u].check(); err != nil {
			return fmt.Errorf("flash: die %d timeline: %w", u, err)
		}
	}
	return nil
}

// WriteSeq returns the OOB write-sequence number of ppa (0 if unwritten).
// Recovery scans use it to order copies of the same LPA; real SSDs stamp
// the same information into the OOB at program time.
func (a *Array) WriteSeq(ppa addr.PPA) uint64 {
	if !a.written[ppa] {
		return 0
	}
	return a.seq[ppa]
}

// TokenAt returns the stored payload token without charging a flash
// access. Simulator-oracle access for recovery bookkeeping and tests —
// never the data path.
func (a *Array) TokenAt(ppa addr.PPA) uint64 { return a.token[ppa] }

// metaUnit maps a translation page's identity (its virtual translation
// PPA, or region/group number) onto the die unit holding it. Meta
// placement is a pure function of the page's identity — never of how
// much data traffic happens to interleave — so identical meta sequences
// land on identical dies across schemes and runs.
func (a *Array) metaUnit(id uint64) int {
	return int(id % uint64(a.units))
}

// MetaRead charges one translation-page read on the die derived from the
// page's identity and returns its completion time. Translation metadata
// I/O (DFTL/SFTL translation pages, LeaFTL group images) is modeled as
// latency and wear without occupying data blocks (docs/ARCHITECTURE.md,
// "Demand-paged mapping & DRAM model").
func (a *Array) MetaRead(id uint64, now time.Duration) time.Duration {
	a.stats.PageReads++
	u := a.metaUnit(id)
	done := a.serveRead(u, now)
	if a.dieAware {
		done = a.busTransfer(u%a.cfg.Channels, done)
	}
	return done
}

// MetaWrite charges one translation-page write on the die derived from
// the page's identity.
func (a *Array) MetaWrite(id uint64, now time.Duration) time.Duration {
	a.stats.PageWrites++
	u := a.metaUnit(id)
	if a.dieAware {
		now = a.busTransfer(u%a.cfg.Channels, now)
	}
	return a.book(u, now, a.cfg.WriteLatency, kindProgram)
}

// OOBWindow models the paper's §3.5 misprediction recovery: the OOB of
// the page at center stores the reverse mappings of its neighbor PPAs
// [center−gamma, center+gamma] (Figure 11), so one page read yields the
// whole window. Slots outside the device or not yet written come back as
// InvalidLPA (the paper's null bytes). The read is charged on center's
// channel; done is its completion time.
//
// gamma must satisfy 2·gamma+1 ≤ Config.OOBEntries — the FTL checks this
// at construction, mirroring the paper's observation that a 128–256B OOB
// holds 32–64 entries.
//
// The window lives in center's OOB area, so the read can come back
// ErrOOBUncorrectable under the fault model (window unusable, returned
// nil); retry rounds are charged into done like any other read.
func (a *Array) OOBWindow(center addr.PPA, gamma int, now time.Duration) (window []addr.LPA, done time.Duration, err error) {
	a.stats.PageReads++
	a.blockReads[a.cfg.BlockOf(center)]++
	u := a.unitOf(a.cfg.BlockOf(center))
	done = a.serveRead(u, now)
	done, _, oobUECC := a.sampleRead(center, u, done, false, true)
	if a.dieAware {
		done = a.busTransfer(a.cfg.ChannelOf(center), done)
	}
	if oobUECC {
		return nil, done, fmt.Errorf("%w: PPA %d (OOB window)", ErrOOBUncorrectable, center)
	}
	window = make([]addr.LPA, 2*gamma+1)
	lo := int64(center) - int64(gamma)
	// The stored window covers neighbors within the same block; the paper
	// nulls entries that fall off the block's ends.
	blockFirst := int64(a.cfg.FirstPPA(a.cfg.BlockOf(center)))
	blockLast := blockFirst + int64(a.cfg.PagesPerBlock) - 1
	for i := range window {
		p := lo + int64(i)
		if p < blockFirst || p > blockLast || !a.written[p] {
			window[i] = addr.InvalidLPA
			continue
		}
		window[i] = a.reverse[p]
	}
	return window, done, nil
}

// BlockReads returns how many page reads block b has served since its
// last erase (the read-disturb counter behind read-reclaim scrubbing).
func (a *Array) BlockReads(b BlockID) uint32 { return a.blockReads[b] }

// BlockProgrammedAt returns when block b's first page was programmed
// after its last erase (0 when the block is empty) — the retention age
// base the scrub sweep compares against.
func (a *Array) BlockProgrammedAt(b BlockID) time.Duration {
	first := a.cfg.FirstPPA(b)
	if !a.written[first] {
		return 0
	}
	return a.progAt[first]
}

// ProgrammedPages returns how many pages of block b have been
// programmed since its last erase (recovery uses it to tell allocated
// blocks from free ones after all RAM state is lost).
func (a *Array) ProgrammedPages(b BlockID) int { return a.nextPg[b] }

// ScanOOB is the crash-recovery scan primitive: one page's OOB decode
// (reverse LPA + write sequence) with fault sampling but without
// timing — the channel-parallel scan charges its own latency, and the
// scan's own reads are not counted as disturb (the block is typically
// erased or rewritten right after recovery anyway). Returns
// ErrOOBUncorrectable when the OOB region is unreadable.
func (a *Array) ScanOOB(ppa addr.PPA, now time.Duration) (addr.LPA, uint64, error) {
	if !a.written[ppa] {
		return addr.InvalidLPA, 0, nil
	}
	if a.fault != nil {
		b := a.cfg.BlockOf(ppa)
		rber := a.fault.rber(a.erases[b], a.busyAge(ppa, now), a.blockReads[b])
		oobBits := a.cfg.OOBSize * 8
		hard, soft := a.fault.oobBudget(a.cfg.PageSize*8, oobBits)
		retries, corrected, uecc := a.fault.readOutcome(rber, oobBits, hard, soft)
		a.stats.ECCRetries += uint64(retries)
		if corrected && !uecc {
			a.stats.CorrectedReads++
		}
		if uecc {
			a.stats.OOBUECC++
			return addr.InvalidLPA, 0, fmt.Errorf("%w: PPA %d (scan)", ErrOOBUncorrectable, ppa)
		}
	}
	return a.reverse[ppa], a.seq[ppa], nil
}

// ScanSibling recovers ppa's OOB record from a neighbor page's OOB
// window (§3.5 stores each page's reverse mapping redundantly in its
// in-block neighbors' windows, sequence number alongside). The later
// neighbor is preferred — it was programmed after ppa, so its window
// definitely recorded ppa. Costs one page read, charged by the caller;
// fails when no programmed in-block sibling exists or the sibling's own
// OOB is unreadable.
func (a *Array) ScanSibling(ppa addr.PPA, now time.Duration) (addr.LPA, uint64, error) {
	b := a.cfg.BlockOf(ppa)
	var sib addr.PPA
	switch {
	case int64(ppa)+1 <= int64(a.cfg.FirstPPA(b))+int64(a.cfg.PagesPerBlock)-1 && a.written[ppa+1]:
		sib = ppa + 1
	case int64(ppa)-1 >= int64(a.cfg.FirstPPA(b)) && a.written[ppa-1]:
		sib = ppa - 1
	default:
		return addr.InvalidLPA, 0, fmt.Errorf("%w: PPA %d has no programmed sibling", ErrOOBUncorrectable, ppa)
	}
	if _, _, err := a.ScanOOB(sib, now); err != nil {
		return addr.InvalidLPA, 0, err
	}
	return a.reverse[ppa], a.seq[ppa], nil
}
