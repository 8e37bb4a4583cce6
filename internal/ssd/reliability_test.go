package ssd

import (
	"errors"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// faultTestConfig returns the small test device with fault injection
// enabled at the given RBER.
func faultTestConfig(seed int64, rber float64) Config {
	cfg := testConfig()
	cfg.Flash.Fault = flash.DefaultFaults(seed, rber)
	return cfg
}

// runFaultyWorkload drives a seeded random read/write mix and asserts
// the no-silent-corruption property: every host read either succeeds
// (the device's own token cross-checks catch wrong data and fail the
// test through readPage's corruption errors) or fails with a typed
// *UECCError. Any other error is a bug. Returns the device for further
// inspection.
func runFaultyWorkload(t *testing.T, cfg Config, scheme ftl.Scheme, seed int64, reqs int) *Device {
	t.Helper()
	d := newTestDevice(t, cfg, scheme)
	rng := seededRand(t, seed)
	span := d.LogicalPages()
	var ueccs int
	for i := 0; i < reqs; i++ {
		lpa := addr.LPA(rng.Intn(span - 8))
		n := 1 + rng.Intn(8)
		if rng.Float64() < 0.5 {
			if _, err := d.Write(lpa, n); err != nil {
				t.Fatalf("seed %d: write %d+%d: %v\nstats %+v\nflash %+v", seed, lpa, n, err, d.Stats(), d.FlashStats())
			}
			continue
		}
		_, err := d.Read(lpa, n)
		var uecc *UECCError
		switch {
		case err == nil:
		case errors.As(err, &uecc):
			ueccs++
		default:
			t.Fatalf("seed %d: read %d+%d returned a non-UECC error: %v", seed, lpa, n, err)
		}
		// Occasionally jump the clock so retention error accrues.
		if i%256 == 255 {
			d.AdvanceTo(d.Now() + 30*time.Second)
		}
	}
	if err := d.Flush(); err != nil {
		var uecc *UECCError
		if !errors.As(err, &uecc) {
			t.Fatalf("seed %d: flush: %v", seed, err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d: %d host UECCs, flash stats %+v", seed, ueccs, d.FlashStats())
	return d
}

// TestNoSilentCorruptionUnderFaults is the acceptance property test:
// with fault injection at an aggressive RBER, no read ever returns
// silently wrong data — the device's internal token cross-check turns
// wrong data into a test failure, so surviving the workload proves
// every injected error was corrected, reconstructed, or reported.
func TestNoSilentCorruptionUnderFaults(t *testing.T) {
	const seed = 20260807
	for _, tc := range []struct {
		name  string
		rber  float64
		gamma int
	}{
		{"leaftl-aged", 2e-5, 4},
		{"leaftl-dying", 1e-4, 4},
		{"leaftl-exactish", 1e-4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultTestConfig(seed, tc.rber)
			// Retention scrubbing on: the workload's clock jumps age the
			// data, and the refresh path must hold up under faults too.
			cfg.ScrubRetentionAge = 2 * time.Minute
			sch := leaftl.New(tc.gamma, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000))
			d := runFaultyWorkload(t, cfg, sch, seed, 6000)
			fst := d.FlashStats()
			if fst.CorrectedReads == 0 {
				t.Errorf("seed %d: no corrected reads at RBER %v", seed, tc.rber)
			}
		})
	}
}

// TestUECCSurfacedToHost pins the lost-data path: destroy an LPA's only
// copy via GC copy-out UECC... hard to force directly, so instead force
// it through loseLPA and check the host-visible behaviour.
func TestUECCSurfacedToHost(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize))
	if _, err := d.Write(100, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.loseLPA(101)
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_, err := d.Read(101, 1)
	var uecc *UECCError
	if !errors.As(err, &uecc) || uecc.LPA != 101 {
		t.Fatalf("read of lost LPA returned %v, want *UECCError for LPA 101", err)
	}
	if d.Stats().HostUECCs == 0 {
		t.Error("HostUECCs not counted")
	}
	// A rewrite clears the loss.
	if _, err := d.Write(101, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(101, 1); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

// TestMultiPageReadPastLostPage: a 4-page read whose second LPA is lost
// still serves and counts the other three pages, and fails with the
// lost page's error.
func TestMultiPageReadPastLostPage(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize))
	if _, err := d.Write(100, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.loseLPA(101)
	before := d.Stats()
	_, err := d.Read(100, 4)
	var uecc *UECCError
	if !errors.As(err, &uecc) || uecc.LPA != 101 {
		t.Fatalf("read 100+4 returned %v, want *UECCError for LPA 101", err)
	}
	after := d.Stats()
	if got := after.HostPagesRead - before.HostPagesRead; got != 4 {
		t.Errorf("%d host pages read, want 4", got)
	}
	if got := after.CacheMisses - before.CacheMisses; got != 3 {
		t.Errorf("%d pages served from flash, want the 3 that are not lost", got)
	}
	if got := after.HostUECCs - before.HostUECCs; got != 1 {
		t.Errorf("%d host UECCs, want 1", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBadBlockRetirement drives a device with a high program-failure
// rate and asserts the retirement lifecycle: blocks are condemned,
// swept out of rotation, and never reappear on the free list — all
// while the workload keeps succeeding.
func TestBadBlockRetirement(t *testing.T) {
	const seed = 7
	cfg := faultTestConfig(seed, 1e-7)
	// Hot enough for a handful of failures over the workload, but each
	// one retires a whole block, so the rate must stay well inside the
	// device's over-provisioning headroom (~13 spare blocks here) —
	// and GC amplification means flash sees ~4.5× the host's programs.
	cfg.Flash.Fault.ProgramFailBase = 8e-5
	cfg.Flash.Fault.EraseFailBase = 3e-3
	sch := leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000))
	d := runFaultyWorkload(t, cfg, sch, seed, 8000)

	st := d.Stats()
	fst := d.FlashStats()
	if fst.ProgramFails == 0 && fst.EraseFails == 0 {
		t.Fatalf("seed %d: fault model produced no program/erase failures", seed)
	}
	if st.RetiredBlocks == 0 {
		t.Errorf("seed %d: %d program fails and %d erase fails but no retired blocks",
			seed, fst.ProgramFails, fst.EraseFails)
	}
	// Retired blocks are out of every structure (CheckInvariants already
	// audits this; assert the count here so the test is self-describing).
	retired := 0
	for b := 0; b < cfg.Flash.Blocks(); b++ {
		if d.bad[b] && d.blockSeq[b] == 0 {
			retired++
			if d.isFree[b] {
				t.Fatalf("seed %d: retired block %d is on the free list", seed, b)
			}
		}
	}
	t.Logf("seed %d: %d retired (%d condemned), %d program fails, %d erase fails",
		seed, retired, st.RetiredBlocks, fst.ProgramFails, fst.EraseFails)
}

// TestScrubDisturb pins read-reclaim: hammering one block past the
// disturb threshold relocates it and resets its read counter.
func TestScrubDisturb(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubDisturbReads = 500
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	if _, err := d.Write(0, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	b := d.cfg.Flash.BlockOf(d.truth[0])
	for i := 0; i < 800; i++ {
		if _, err := d.Read(addr.LPA(i%64), 1); err != nil {
			t.Fatal(err)
		}
		// The data cache would absorb repeats; vary and occasionally
		// clear it so reads reach flash.
		if i%16 == 15 {
			d.cache.Resize(0)
			d.resizeCache()
		}
	}
	if d.Stats().ScrubRelocations == 0 {
		t.Fatalf("no scrub relocations after hammering block %d (reads=%d)", b, d.arr.BlockReads(b))
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubRetention pins the retention sweep: blocks whose pages sit
// programmed past the age threshold are refreshed at the next flush.
func TestScrubRetention(t *testing.T) {
	cfg := testConfig()
	cfg.ScrubRetentionAge = time.Minute
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	if _, err := d.Write(0, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d.AdvanceTo(d.Now() + 2*time.Minute)
	// The next flush runs the retention sweep.
	if _, err := d.Write(1000, 64); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().ScrubRelocations == 0 {
		t.Fatal("no scrub relocations after a 2-minute retention gap")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWearSpreadBounded is the wear regression: the erase-count spread
// over non-retired blocks stays within the wear-leveling delta plus
// slack, and the device's free-pool bookkeeping survives. Two pools are
// aged. Under
// mixed churn (a hot eighth plus a fifth of the writes uniform) every
// block is eventually invalidated and reclaimed, and oldest-first
// allocation alone may keep the spread under WearDelta — whether the
// leveler ran is not the contract there, the bound is. The skewed pool
// is built so that it cannot hold without the leveler: half the space is
// written once and never again, pinning its blocks fully valid at zero
// erases while hot-only churn cycles the rest. The subtest is named for
// the collector: greedy victim choice with one GC destination stream.
func TestWearSpreadBounded(t *testing.T) {
	t.Run("greedy-1", wearSpreadBounded)
}

func wearSpreadBounded(t *testing.T) {
	const seed = 99
	for _, skewed := range []bool{false, true} {
		cfg := testConfig()
		cfg.WearDelta = 8
		d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
		rng := seededRand(t, seed)
		span := d.LogicalPages()
		uniform := 0.2
		if skewed {
			uniform = 0
			for lpa := span / 2; lpa < span; lpa++ {
				if _, err := d.Write(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		for i := 0; i < 60000; i++ {
			lpa := addr.LPA(rng.Intn(span / 8)) // hot eighth
			if rng.Float64() < uniform {
				lpa = addr.LPA(rng.Intn(span))
			}
			if _, err := d.Write(lpa, 1); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var minE, maxE uint32
		first := true
		for b := 0; b < cfg.Flash.Blocks(); b++ {
			if d.bad[b] {
				continue
			}
			e := d.arr.EraseCount(flash.BlockID(b))
			if first {
				minE, maxE = e, e
				first = false
			}
			if e < minE {
				minE = e
			}
			if e > maxE {
				maxE = e
			}
		}
		// The leveler moves one cold block per flush once the
		// spread passes WearDelta, while GC keeps erasing hot
		// blocks in the meantime — so the steady-state spread
		// overshoots the trigger threshold but stays within
		// twice it.
		if spread := maxE - minE; spread > 2*cfg.WearDelta {
			t.Errorf("seed %d skewed=%v: erase spread %d exceeds 2×WearDelta %d (min %d max %d)",
				seed, skewed, spread, cfg.WearDelta, minE, maxE)
		}
		if maxE <= 2*cfg.WearDelta {
			t.Errorf("seed %d skewed=%v: hottest block erased only %d times; the bound was never at risk",
				seed, skewed, maxE)
		}
		if skewed && d.Stats().WearMoves == 0 {
			t.Errorf("seed %d: wear leveler never ran on the skewed pool", seed)
		}
	}
}

// TestCrashHookRecover exercises the crash machinery end to end at the
// ssd layer: panic out of a crash hook mid-flush, recover into a fresh
// scheme, and check invariants plus full differential reads.
func TestCrashHookRecover(t *testing.T) {
	const seed = 11
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
	rng := seededRand(t, seed)
	span := d.LogicalPages()

	// entered[l] is the write that last put l into the buffer: the order
	// BufferedLPAs must list the buffered LPAs in.
	entered := make(map[addr.LPA]int)
	listed, drained := 0, 0
	type crashMark struct{ point string }
	countdown := 3
	d.SetCrashHook(func(point string) {
		// At every hook, on the way to the crash: BufferedLPAs names
		// exactly the LPAs whose newest data is not on flash — none the
		// interrupted flush already programmed — in buffer-entry order.
		buf := d.BufferedLPAs()
		want := 0
		for l, tok := range d.token {
			if ppa := d.truth[l]; tok != 0 && (ppa == addr.InvalidPPA || d.arr.TokenAt(ppa) != tok) {
				want++
			}
		}
		if len(buf) != want {
			t.Fatalf("seed %d at %q: BufferedLPAs lists %d LPAs, %d are not durable", seed, point, len(buf), want)
		}
		for k, l := range buf {
			if ppa := d.truth[l]; ppa != addr.InvalidPPA && d.arr.TokenAt(ppa) == d.token[l] {
				t.Fatalf("seed %d at %q: BufferedLPAs lists LPA %d, already programmed", seed, point, l)
			}
			if k > 0 && entered[l] <= entered[buf[k-1]] {
				t.Fatalf("seed %d at %q: BufferedLPAs lists LPA %d (entered at write %d) after LPA %d (write %d)",
					seed, point, l, entered[l], buf[k-1], entered[buf[k-1]])
			}
		}
		listed += len(buf)
		drained += len(d.bufOrder) - len(buf)
		countdown--
		if countdown <= 0 {
			panic(crashMark{point})
		}
	})
	crashed := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				m, ok := r.(crashMark)
				if !ok {
					panic(r)
				}
				crashed = m.point
			}
		}()
		for i := 0; i < 20000; i++ {
			l := addr.LPA(rng.Intn(span))
			if !d.buffered[l] {
				entered[l] = i
			}
			if _, err := d.Write(l, 1); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		t.Fatalf("seed %d: workload finished without reaching the crash countdown", seed)
	}()
	d.SetCrashHook(nil)
	if crashed == "" {
		t.Fatalf("seed %d: no crash point recorded", seed)
	}
	if listed == 0 || drained == 0 {
		t.Fatalf("seed %d: hooks saw %d buffered and %d programmed-but-logged LPAs: the order and over-report checks never ran",
			seed, listed, drained)
	}

	rep, err := d.Recover(leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
	if err != nil {
		t.Fatalf("seed %d: recover after crash at %q: %v", seed, crashed, err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("seed %d: after crash at %q: %v", seed, crashed, err)
	}
	tokens, _ := d.TruthSnapshot()
	for l, tok := range tokens {
		if tok == 0 {
			continue
		}
		if _, err := d.Read(addr.LPA(l), 1); err != nil {
			t.Fatalf("seed %d: post-recovery read of LPA %d (crash at %q): %v", seed, l, crashed, err)
		}
	}
	t.Logf("seed %d: crashed at %q, recovered %d mappings (%d restored) in %v",
		seed, crashed, rep.MappingsRebuilt, rep.MappingsRestored, rep.ScanTime)
}
