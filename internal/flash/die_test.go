package flash

import (
	"errors"
	"testing"
	"time"

	"leaftl/internal/addr"
)

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
		units := cfg.Channels
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
	if want != metaPage%cfg.Channels {
		t.Fatalf("meta page %d routed to unit %d, want identity-derived %d",
			metaPage, want, metaPage%cfg.Channels)
	}
	for _, prime := range [][2]int{{1, 0}, {5, 3}, {8, 7}} {
		if got := probe(prime[0], prime[1]); got != want {
			t.Errorf("after %d writes + %d reads, meta page %d moved to unit %d (was %d): placement depends on data traffic",
				prime[0], prime[1], metaPage, got, want)
		}
	}
}
