package flash

import (
	"errors"
	"testing"
	"time"

	"leaftl/internal/addr"
)

// dieCfg returns the 2-channel test geometry with a die/plane fan-out.
func dieCfg(dies, planes int) Config {
	c := testCfg() // 2 channels × 4 blocks/chan × 8 pages
	c.DiesPerChan = dies
	c.PlanesPerDie = planes
	return c
}

func TestDieGeometryAccessors(t *testing.T) {
	c := dieCfg(2, 2)
	if c.Units() != 4 {
		t.Fatalf("Units = %d, want 4", c.Units())
	}
	for b := 0; b < c.Blocks(); b++ {
		id := BlockID(b)
		if got := c.UnitOfBlock(id); got != b%4 {
			t.Errorf("UnitOfBlock(%d) = %d, want %d", b, got, b%4)
		}
		// Channel assignment is unchanged from the one-die geometry:
		// unit mod channels ≡ block mod channels.
		if got := c.ChannelOf(c.FirstPPA(id)); got != b%2 {
			t.Errorf("ChannelOf(block %d) = %d, want %d", b, got, b%2)
		}
		if got := c.DieOfBlock(id); got != (b%4)/2 {
			t.Errorf("DieOfBlock(%d) = %d, want %d", b, got, (b%4)/2)
		}
	}
	// Consecutive page offsets alternate planes.
	for i := 0; i < 4; i++ {
		if got := c.PlaneOf(addr.PPA(i)); got != i%2 {
			t.Errorf("PlaneOf(%d) = %d, want %d", i, got, i%2)
		}
	}
	// The zero value means one die, one plane — the legacy geometry.
	legacy := testCfg()
	if legacy.Dies() != 1 || legacy.Planes() != 1 || legacy.Units() != legacy.Channels {
		t.Errorf("zero die/plane config: dies=%d planes=%d units=%d",
			legacy.Dies(), legacy.Planes(), legacy.Units())
	}
}

func TestDieConfigValidate(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"negative dies":        func(c *Config) { c.DiesPerChan = -1 },
		"negative planes":      func(c *Config) { c.PlanesPerDie = -1 },
		"blocks not divisible": func(c *Config) { c.DiesPerChan = 3 },  // 4 % 3 != 0
		"pages not divisible":  func(c *Config) { c.PlanesPerDie = 3 }, // 8 % 3 != 0
		"too many planes":      func(c *Config) { c.PagesPerBlock = 1 << 7; c.PlanesPerDie = 64 },
	} {
		c := testCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	good := dieCfg(2, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid die geometry rejected: %v", err)
	}
}

// TestDieParallelPrograms: two programs to different dies of the same
// channel serialize only on the short bus transfer, not on each other's
// cell time — the die-level parallelism the geometry exists to model.
func TestDieParallelPrograms(t *testing.T) {
	a, _ := NewArray(dieCfg(2, 1))
	cfg := a.Config()
	x := cfg.busXfer()
	// Block 0 → channel 0 die 0; block 2 → channel 0 die 1.
	d1, _ := a.Write(cfg.FirstPPA(0), 0, 0, 0)
	d2, _ := a.Write(cfg.FirstPPA(2), 1, 0, 0)
	if d1 != x+cfg.WriteLatency {
		t.Errorf("first program done at %v, want bus+cell %v", d1, x+cfg.WriteLatency)
	}
	if d2 != 2*x+cfg.WriteLatency {
		t.Errorf("sibling-die program done at %v, want %v (bus-serialized only)", d2, 2*x+cfg.WriteLatency)
	}
	if d2 >= 2*cfg.WriteLatency {
		t.Errorf("sibling-die program serialized on the die: done %v", d2)
	}
}

// TestDieOutOfOrderReads: a read to an idle die completes before an
// earlier-issued program to a busy die — out-of-order completion across
// dies of one channel.
func TestDieOutOfOrderReads(t *testing.T) {
	a, _ := NewArray(dieCfg(2, 1))
	cfg := a.Config()
	// Program die 0 (block 0), then read die 1 (block 2, erased page —
	// reads of unwritten pages still charge the die and bus).
	dProg, _ := a.Write(cfg.FirstPPA(0), 0, 0, 0)
	_, _, dRead, _ := a.Read(cfg.FirstPPA(2), 0)
	if dRead >= dProg {
		t.Errorf("idle-die read done at %v, not before the busy-die program at %v", dRead, dProg)
	}
}

// TestPlanePairProgram pins the multi-plane window: back-to-back
// programs to alternating planes of one die complete together; a third
// program to an already-used plane opens a fresh window behind them.
func TestPlanePairProgram(t *testing.T) {
	a, _ := NewArray(dieCfg(1, 2))
	cfg := a.Config()
	x := cfg.busXfer()
	d1, _ := a.Write(0, 0, 0, 0) // plane 0
	d2, _ := a.Write(1, 1, 0, 0) // plane 1: joins the window
	if d1 != x+cfg.WriteLatency || d2 != d1 {
		t.Errorf("plane pair done at %v/%v, want both %v", d1, d2, x+cfg.WriteLatency)
	}
	d3, _ := a.Write(2, 2, 0, 0) // plane 0 again: window full for that plane
	if d3 != d1+cfg.WriteLatency {
		t.Errorf("third program done at %v, want next window %v", d3, d1+cfg.WriteLatency)
	}
}

// TestPlaneWindowClosedByRead: an interposed read on the die breaks the
// window — the next program must not retroactively join a window that is
// no longer the tail of the die's backlog.
func TestPlaneWindowClosedByRead(t *testing.T) {
	a, _ := NewArray(dieCfg(1, 2))
	d1, _ := a.Write(0, 0, 0, 0) // plane 0 opens a window
	a.Read(0, 0)                 // preempting read on the same die
	d2, _ := a.Write(1, 1, 0, 0) // plane 1 must NOT complete with d1
	if d2 <= d1 {
		t.Errorf("program after read joined a stale window: done %v ≤ %v", d2, d1)
	}
}

// TestRetriesExtendReadOnDie is the regression for the retry-arbitration
// bug: ECC read-retry rounds used to re-enter channel arbitration, so a
// retrying read behind a queued erase re-paid the erase wait per round.
// Retries re-sense the page where the first attempt finished — they run
// back to back from the read's own completion on its die.
func TestRetriesExtendReadOnDie(t *testing.T) {
	cfg := testCfg()
	// A page this hot always exhausts the retry budget and reports UECC —
	// the retry charge itself is what the test pins, deterministically.
	cfg.Fault = FaultConfig{
		Enabled:        true,
		Seed:           1,
		BaseRBER:       0.5,
		ECCHardBits:    8,
		ECCSoftBits:    24,
		MaxReadRetries: 4,
	}
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, r, e := cfg.WriteLatency, cfg.ReadLatency, cfg.EraseLatency
	if _, err := a.Write(0, 7, 1, 0); err != nil { // block 0, unit 0
		t.Fatal(err)
	}
	a.Erase(2, 0)                     // block 2 shares unit 0; queued behind the program
	a.Write(cfg.FirstPPA(2), 0, 0, 0) // re-program: the tail is now a program
	before := a.Stats().ECCRetries

	// The read preempts the tail program but may not start before the
	// erase completes (w + e); its retries extend from its own finish.
	_, _, done, err := a.Read(0, 0)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("aged read err = %v, want uncorrectable", err)
	}
	rounds := time.Duration(a.Stats().ECCRetries - before)
	if rounds == 0 {
		t.Fatal("no retry rounds charged")
	}
	if want := w + e + (1+rounds)*r; done != want {
		t.Errorf("retrying read done at %v, want %v (%d contiguous rounds; no re-arbitration behind the backlog)",
			done, want, rounds)
	}
}

// TestMetaPlacementDataIndependent is the regression for the meta-routing
// bug: translation-page placement used to rotate on the PageReads +
// PageWrites counters, so unrelated data traffic moved where a given
// translation page lived. Placement is a pure function of the page's
// identity.
func TestMetaPlacementDataIndependent(t *testing.T) {
	const metaPage = 3
	probe := func(primeWrites, primeReads int) int {
		a, _ := NewArray(testCfg())
		var now time.Duration
		for i := 0; i < primeWrites; i++ {
			d, err := a.Write(addr.PPA(i), addr.LPA(i), 0, now)
			if err != nil {
				t.Fatal(err)
			}
			now = d
		}
		for i := 0; i < primeReads; i++ {
			_, _, d, _ := a.Read(0, now)
			now = d
		}
		quiet := now + time.Hour
		cfg := a.Config()
		units := cfg.Units()
		before := make([]time.Duration, units)
		for u := 0; u < units; u++ {
			before[u] = a.dies[u].busyUntil()
		}
		a.MetaWrite(metaPage, quiet)
		unit := -1
		for u := 0; u < units; u++ {
			if a.dies[u].busyUntil() != before[u] {
				unit = u
			}
		}
		return unit
	}
	want := probe(0, 0)
	cfg := testCfg()
	if want != metaPage%cfg.Units() {
		t.Fatalf("meta page %d routed to unit %d, want identity-derived %d",
			metaPage, want, metaPage%cfg.Units())
	}
	for _, prime := range [][2]int{{1, 0}, {5, 3}, {8, 7}} {
		if got := probe(prime[0], prime[1]); got != want {
			t.Errorf("after %d writes + %d reads, meta page %d moved to unit %d (was %d): placement depends on data traffic",
				prime[0], prime[1], metaPage, got, want)
		}
	}
}
