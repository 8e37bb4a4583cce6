package ssd

import (
	"fmt"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// sansRunHint is a LeaFTL scheme with every capability the device
// probes except the run hint (ExpectRun): behind it, every page of a
// multi-page read is translated with a Lookup of its own.
type sansRunHint struct {
	ftl.Journaled // Scheme + GroupPaged + the journal
	errorBound
	ftl.GCRelearner
	ftl.ExactAuditor
	journalHook
}

// microConfig is the device the evaluation cells run at micro scale:
// 16 channels × 16 blocks × 256 pages, a 256-page write buffer and a
// 48 KiB mapping+cache pool. A positive budget cuts the pool to that
// fraction of the 8 B/LPA page map, as a cell's budget does.
func microConfig(budget float64) Config {
	cfg := SimulatorConfig()
	cfg.Flash.BlocksPerChan = 16
	cfg.Flash.OOBSize = 256
	cfg.BufferPages = 256
	pool := int64(48 << 10)
	if budget > 0 {
		pool = int64(budget * float64(cfg.LogicalPages()*dftl.EntryBytes))
	}
	cfg.DRAMBytes = cfg.BufferBytes() + pool
	return cfg
}

// runHintChurn writes half the device, then mixes random 1–8-page
// writes (a fifth of them to a hot region) that learn approximate
// segments with reads of 1–64 pages, a third of them
// placed to cross a group boundary. Some reads are repeated after a
// page of their run was overwritten and committed. It returns how many
// reads crossed a group boundary.
func runHintChurn(t *testing.T, d *Device) (crossing int) {
	t.Helper()
	rng := seededRand(t, 4242)
	logical := d.LogicalPages()
	span := logical / 2
	for lpa := 0; lpa < span; lpa += 64 {
		if _, err := d.Write(addr.LPA(lpa), 64); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 12000; op++ {
		if op%3 == 0 {
			lpa, n := rng.Intn(span), 1+rng.Intn(8)
			if op%5 == 0 {
				lpa = rng.Intn(span / 5)
			}
			if _, err := d.Write(addr.LPA(lpa), min(n, logical-lpa)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		n := 1 + rng.Intn(64)
		lpa := rng.Intn(span - n)
		if op%3 == 1 {
			// End the read a few pages into the next group.
			lpa = max(0, int(addr.GroupBase(addr.Group(addr.LPA(lpa))+1))-n+1+rng.Intn(n))
		}
		if addr.Group(addr.LPA(lpa)) != addr.Group(addr.LPA(lpa+n-1)) {
			crossing++
		}
		if _, err := d.Read(addr.LPA(lpa), n); err != nil {
			t.Fatal(err)
		}
		if op%10 == 2 {
			// Overwrite a page of the run, commit it and read the run
			// again: the second read must not see the first's answers.
			if _, err := d.Write(addr.LPA(lpa+rng.Intn(n)), 1); err != nil {
				t.Fatal(err)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Read(addr.LPA(lpa), n); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return crossing
}

// TestRunHintChangesNothing: the run hint is host time alone. The
// cells' full and paper schemes, unbudgeted and at a paging budget,
// run one churn of multi-page reads and writes twice, once as built and
// once behind sansRunHint, and must end with the same device state,
// mapping, counters and latency distributions.
func TestRunHintChangesNothing(t *testing.T) {
	presets := map[string][]leaftl.Option{
		"full":  {leaftl.WithExactBitmap()},
		"paper": nil,
	}
	for _, name := range []string{"full", "paper"} {
		for _, budget := range []float64{0, 0.005} {
			t.Run(fmt.Sprintf("%s/budget=%g", name, budget), func(t *testing.T) {
				cfg := microConfig(budget)
				mk := func() *leaftl.Scheme {
					opts := append([]leaftl.Option{leaftl.WithCompactEvery(5000)}, presets[name]...)
					return leaftl.New(4, cfg.Flash.PageSize, opts...)
				}
				s := mk()
				hinted := newTestDevice(t, cfg, s)
				if hinted.runHint == nil {
					t.Fatal("the device did not bind LeaFTL's run hint")
				}
				u := mk()
				unhinted := newTestDevice(t, cfg, sansRunHint{u, u, u, u, u})
				if unhinted.runHint != nil {
					t.Fatal("the device bound a run hint the scheme does not offer")
				}
				crossing := runHintChurn(t, hinted)
				runHintChurn(t, unhinted)
				requireSameDevice(t, "hinted vs unhinted", hinted, unhinted)
				if a, b := s.MappingDigest(), u.MappingDigest(); a != b {
					t.Errorf("mapping digest %#x != %#x", a, b)
				}
				// paper's reads go through approximate segments and take
				// the §3.5 recovery; full learns at γ = 0, so none of its
				// reads is approximate.
				st := hinted.Stats()
				if crossing == 0 || name == "paper" && (st.ApproxReads == 0 || st.Mispredictions == 0) {
					t.Fatalf("churn too shallow: %d group-crossing reads, %d approximate reads, %d mispredictions",
						crossing, st.ApproxReads, st.Mispredictions)
				}
				if name == "full" && (st.ApproxReads != 0 || st.Mispredictions != 0) {
					t.Errorf("full: %d approximate reads, %d mispredictions; it learns at γ = 0, want none",
						st.ApproxReads, st.Mispredictions)
				}
				if budget > 0 && st.MetaReads == 0 {
					t.Fatal("budgeted churn never paged a group in")
				}
			})
		}
	}
}
