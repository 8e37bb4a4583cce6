package flash

import (
	"errors"
	"math"
	"testing"
	"time"

	"leaftl/internal/addr"
)

func faultyCfg(seed int64, rber float64) Config {
	c := testCfg()
	c.Fault = DefaultFaults(seed, rber)
	return c
}

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{}).Validate(); err != nil {
		t.Errorf("disabled config rejected: %v", err)
	}
	if err := DefaultFaults(1, 1e-5).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	bad := DefaultFaults(1, 1e-5)
	bad.ECCSoftBits = bad.ECCHardBits - 1
	if bad.Validate() == nil {
		t.Error("soft < hard accepted")
	}
	bad = DefaultFaults(1, 1e-5)
	bad.BaseRBER = 1.5
	if bad.Validate() == nil {
		t.Error("BaseRBER > 1 accepted")
	}
	bad = DefaultFaults(1, 1e-5)
	bad.RetentionUnit = 0
	if bad.Validate() == nil {
		t.Error("zero RetentionUnit accepted")
	}
}

// TestRBERMonotone pins the aging model: RBER never decreases with
// wear, retention age, or read disturb, and is capped at 0.5.
func TestRBERMonotone(t *testing.T) {
	f := newFaultModel(DefaultFaults(1, 1e-6))
	base := f.rber(0, 0, 0)
	if base != 1e-6 {
		t.Errorf("fresh RBER = %v", base)
	}
	prev := base
	for e := uint32(100); e <= 10_000; e *= 10 {
		r := f.rber(e, 0, 0)
		if r < prev {
			t.Errorf("RBER fell with wear: %v at %d erases", r, e)
		}
		prev = r
	}
	if f.rber(0, time.Minute, 0) <= base {
		t.Error("retention did not raise RBER")
	}
	if f.rber(0, 0, 5000) <= base {
		t.Error("read disturb did not raise RBER")
	}
	if r := f.rber(math.MaxUint32, time.Hour, math.MaxUint32); r > 0.5 {
		t.Errorf("RBER cap broken: %v", r)
	}
}

// TestFaultDeterminism: same seed + same op sequence = identical faults
// (stats, errors, and latencies all match).
func TestFaultDeterminism(t *testing.T) {
	run := func() (Stats, []error) {
		a, err := NewArray(faultyCfg(42, 2e-4))
		if err != nil {
			t.Fatal(err)
		}
		var errs []error
		now := time.Duration(0)
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < 8; i++ {
				_, err := a.Write(addr.PPA(i), addr.LPA(i), uint64(i+1), now)
				errs = append(errs, err)
				now += time.Millisecond
			}
			for i := 0; i < 8; i++ {
				_, _, _, err := a.Read(addr.PPA(i), now)
				errs = append(errs, err)
				now += 10 * time.Second // accrue retention error
			}
			_, err := a.Erase(0, now)
			errs = append(errs, err)
		}
		return a.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("error sequence diverged at op %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// TestReadOutcomeThresholds drives readOutcome through its three
// regimes by checking the classification of known error counts.
func TestReadOutcomeThresholds(t *testing.T) {
	cfg := DefaultFaults(7, 1e-6)
	f := newFaultModel(cfg)
	// Sample many outcomes at an RBER high enough that all regimes
	// appear, and check the invariants that tie them together.
	bits := 4096 * 8
	var sawClean, sawRetry, sawUECC bool
	for i := 0; i < 5000; i++ {
		retries, corrected, uecc := f.readOutcome(4e-4, bits, cfg.ECCHardBits, cfg.ECCSoftBits)
		switch {
		case uecc:
			sawUECC = true
			if retries != cfg.MaxReadRetries {
				t.Fatalf("UECC with %d retries, want max %d", retries, cfg.MaxReadRetries)
			}
		case retries > 0:
			sawRetry = true
			if !corrected {
				t.Fatal("retried read not marked corrected")
			}
			if retries > cfg.MaxReadRetries {
				t.Fatalf("retries %d beyond cap %d", retries, cfg.MaxReadRetries)
			}
		default:
			sawClean = true
		}
	}
	if !sawClean || !sawRetry || !sawUECC {
		t.Errorf("regimes seen: clean=%v retry=%v uecc=%v (seed 7)", sawClean, sawRetry, sawUECC)
	}
	// Zero RBER is always clean.
	if r, c, u := f.readOutcome(0, bits, cfg.ECCHardBits, cfg.ECCSoftBits); r != 0 || c || u {
		t.Errorf("zero-RBER read not clean: %d/%v/%v", r, c, u)
	}
}

func TestOOBBudgetFloors(t *testing.T) {
	f := newFaultModel(DefaultFaults(1, 1e-6))
	hard, soft := f.oobBudget(4096*8, 256*8)
	if hard < 1 || soft < hard+1 {
		t.Errorf("OOB budget %d/%d below floors", hard, soft)
	}
	if hard > f.cfg.ECCHardBits || soft > f.cfg.ECCSoftBits {
		t.Errorf("OOB budget %d/%d exceeds data budget", hard, soft)
	}
}

// TestProgramFailBurnsPage: a failed program leaves the page written
// but empty (no token, no reverse mapping, no write seq), and the
// block keeps programming in order afterwards.
func TestProgramFailBurnsPage(t *testing.T) {
	cfg := faultyCfg(3, 1e-4)
	cfg.Fault.ProgramFailBase = 1 // fail every program
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, werr := a.Write(0, 100, 0xbeef, 0)
	if !errors.Is(werr, ErrProgramFail) {
		t.Fatalf("write error = %v, want ErrProgramFail", werr)
	}
	if !a.Written(0) {
		t.Error("burned page not marked written")
	}
	if a.Reverse(0) != addr.InvalidLPA || a.seq[0] != 0 {
		t.Error("burned page kept OOB contents")
	}
	if a.Stats().ProgramFails != 1 {
		t.Errorf("ProgramFails = %d", a.Stats().ProgramFails)
	}
	// The next program targets the next page, not the burned one.
	cfg2 := faultyCfg(3, 1e-4)
	a2, _ := NewArray(cfg2)
	a2.Write(0, 1, 1, 0)
	a2.Write(1, 2, 2, 0)
}

// TestEraseFailKeepsContents: a failed erase leaves the block's pages
// and erase count untouched.
func TestEraseFailKeepsContents(t *testing.T) {
	cfg := faultyCfg(5, 1e-4)
	cfg.Fault.ProgramFailBase = 0
	cfg.Fault.EraseFailBase = 1 // fail every erase
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, 9, 0xfeed, 0); err != nil {
		t.Fatal(err)
	}
	_, eerr := a.Erase(0, 0)
	if !errors.Is(eerr, ErrEraseFail) {
		t.Fatalf("erase error = %v, want ErrEraseFail", eerr)
	}
	if !a.Written(0) || a.Reverse(0) != 9 {
		t.Error("failed erase wiped page contents")
	}
	if a.EraseCount(0) != 1 {
		// The cycle was attempted — it still wears the block.
		t.Errorf("EraseCount = %d after failed erase", a.EraseCount(0))
	}
	if a.Stats().EraseFails != 1 {
		t.Errorf("EraseFails = %d", a.Stats().EraseFails)
	}
}

// TestUECCNeverSilent: at a catastrophic RBER, data reads either
// return the true token or an explicit error — never a wrong token.
func TestUECCNeverSilent(t *testing.T) {
	const seed = 11
	cfg := faultyCfg(seed, 5e-4)
	cfg.Fault.ProgramFailBase = 0
	cfg.Fault.EraseFailBase = 0
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	for i := 0; i < 8; i++ {
		if _, err := a.Write(addr.PPA(i), addr.LPA(i), uint64(0x1000+i), now); err != nil {
			t.Fatal(err)
		}
	}
	var uecc int
	for rep := 0; rep < 200; rep++ {
		now += 5 * time.Second
		for i := 0; i < 8; i++ {
			tok, rev, _, err := a.Read(addr.PPA(i), now)
			switch {
			case err == nil:
				if tok != uint64(0x1000+i) || rev != addr.LPA(i) {
					t.Fatalf("seed %d: silent corruption at page %d: tok=%x rev=%d", seed, i, tok, rev)
				}
			case errors.Is(err, ErrUncorrectable):
				uecc++
				if tok != 0 {
					t.Fatalf("seed %d: UECC returned a token: %x", seed, tok)
				}
			case errors.Is(err, ErrOOBUncorrectable):
				if tok != uint64(0x1000+i) {
					t.Fatalf("seed %d: OOB UECC corrupted data token: %x", seed, tok)
				}
				if rev != addr.InvalidLPA {
					t.Fatalf("seed %d: OOB UECC returned a reverse mapping: %d", seed, rev)
				}
			default:
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
		}
	}
	st := a.Stats()
	if st.DataUECC == 0 && uecc == 0 {
		t.Errorf("seed %d: aging never produced a data UECC (CorrectedReads=%d)", seed, st.CorrectedReads)
	}
	if st.ECCRetries == 0 {
		t.Errorf("seed %d: no read retries charged", seed)
	}
}

// TestRetryLatencyCharged: a corrected read with retries takes longer
// than a clean read of the same page.
func TestRetryLatencyCharged(t *testing.T) {
	cfg := faultyCfg(2, 0)
	// Base zero, huge retention slope: first read is clean, aged read
	// must retry.
	cfg.Fault.RetentionRBER = 2e-4
	cfg.Fault.ProgramFailBase = 0
	cfg.Fault.EraseFailBase = 0
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(0, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	_, _, clean, err := a.Read(0, a.Config().WriteLatency)
	if err != nil {
		t.Fatal(err)
	}
	cleanLat := clean - a.Config().WriteLatency
	// Age the page far enough that some read in a long series retries.
	var sawSlow bool
	now := a.Config().WriteLatency
	for i := 0; i < 500 && !sawSlow; i++ {
		now += 30 * time.Second
		_, _, done, err := a.Read(0, now)
		if err != nil {
			continue // UECC still charges retries; covered elsewhere
		}
		if done-now > cleanLat {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Error("no retry latency observed on an aged page (seed 2)")
	}
	if a.Stats().ECCRetries == 0 {
		t.Error("retry counter never incremented")
	}
}

// TestScanPrimitives: ScanOOB decodes reverse+seq, ScanSibling recovers
// them via a neighbor, and both honor the fault switch.
func TestScanPrimitives(t *testing.T) {
	a, _ := NewArray(testCfg()) // faults off
	a.Write(0, 40, 1, 0)
	a.Write(1, 41, 2, 0)
	lpa, seq, err := a.ScanOOB(0, 0)
	if err != nil || lpa != 40 || seq != a.seq[0] {
		t.Errorf("ScanOOB = %d/%d/%v", lpa, seq, err)
	}
	if lpa, _, err := a.ScanOOB(5, 0); err != nil || lpa != addr.InvalidLPA {
		t.Errorf("ScanOOB of unwritten page = %d/%v", lpa, err)
	}
	lpa, seq, err = a.ScanSibling(0, 0)
	if err != nil || lpa != 40 || seq != a.seq[0] {
		t.Errorf("ScanSibling = %d/%d/%v", lpa, seq, err)
	}
	// A lone page in its block has no sibling.
	a.Write(8, 50, 3, 0) // block 1, first page
	if _, _, err := a.ScanSibling(8, 0); err == nil {
		t.Error("ScanSibling of lone page succeeded")
	}
}

// TestBlockReadCounters: reads tick the disturb counter; erase resets
// it along with the program timestamp.
func TestBlockReadCounters(t *testing.T) {
	a, _ := NewArray(testCfg())
	a.Write(0, 0, 1, time.Millisecond)
	if got := a.BlockProgrammedAt(0); got != time.Millisecond {
		t.Errorf("BlockProgrammedAt = %v", got)
	}
	a.Read(0, 0)
	a.Read(1, 0)
	a.OOBWindow(0, 1, 0)
	if got := a.BlockReads(0); got != 3 {
		t.Errorf("BlockReads = %d, want 3", got)
	}
	if _, err := a.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if a.BlockReads(0) != 0 || a.BlockProgrammedAt(0) != 0 {
		t.Error("erase did not reset disturb/retention state")
	}
}
