package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// churnBitIdentity drives a deterministic workload with enough overwrite
// pressure to trigger GC, so the scenario covers the learned read path
// and the relocation path.
func churnBitIdentity(t *testing.T, d *Device) {
	t.Helper()
	logical := d.LogicalPages()
	rng := seededRand(t, 9021)
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < 6000; op++ {
		switch {
		case op%5 < 2:
			// Overwrite churn: invalidates pages, forces GC.
			if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case op%5 == 2:
			// Scattered single-page writes (learning-hostile).
			for i := 0; i < 4; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if _, err := d.Read(addr.LPA(rng.Intn(logical/4)), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// The off-state identity tests below are relational: each runs its
// scenario twice in the same process — once with the option off, once on
// a device that cannot reach the option's code at all — and demands
// identical state, counters and latencies. "Off" is thereby pinned to
// "absent" by construction rather than to a digest captured at some past
// commit, which every intended change to placement or timing would
// otherwise have to re-capture by hand.

// journalHook names the capability probe the device makes through an
// anonymous interface, so the views below can forward it. errorBound is
// ftl.Gamma under another name: embedded as ftl.Gamma, the field would be
// named Gamma and hide the method it should promote.
type (
	journalHook interface{ SetJournalCrashHook(func(string)) }
	errorBound  interface{ Gamma() int }
)

// sansBitmap is a LeaFTL scheme as the device saw it before
// WithExactBitmap existed: every capability except the two that came
// with it, GC-time relearning (ftl.GCRelearner) and the exactness audit
// (ftl.ExactAuditor). The device type-asserts for those, so behind this
// view it falls back to plain Commit and skips the audit.
type sansBitmap struct {
	ftl.Journaled // Scheme + GroupPaged + the journal
	errorBound
	journalHook
}

// requireSameDevice fails unless a and b ended in bit-identical state
// with identical counters (simulated durations included: both runs share
// one clock) and identical latency distributions.
func requireSameDevice(t *testing.T, what string, a, b *Device) {
	t.Helper()
	if ga, gb := a.StateDigest(), b.StateDigest(); ga != gb {
		t.Errorf("%s: state digest %#x != %#x", what, ga, gb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("%s: counters diverged:\n  %+v\n  %+v", what, sa, sb)
	}
	if fa, fb := a.FlashStats(), b.FlashStats(); fa != fb {
		t.Errorf("%s: flash counters diverged: %+v vs %+v", what, fa, fb)
	}
	if ra, rb := a.ReadLatency().Summary(), b.ReadLatency().Summary(); ra != rb {
		t.Errorf("%s: read latency diverged:\n  %+v\n  %+v", what, ra, rb)
	}
	if wa, wb := a.WriteLatency().Summary(), b.WriteLatency().Summary(); wa != wb {
		t.Errorf("%s: write latency diverged:\n  %+v\n  %+v", what, wa, wb)
	}
	if a.Now() != b.Now() {
		t.Errorf("%s: clocks diverged: %v vs %v", what, a.Now(), b.Now())
	}
}

// TestBitmapOffBitIdentity: without WithExactBitmap — the default — the learned read path and GC must behave as if the
// feature did not exist. The same churn runs on the scheme as built and
// behind sansBitmap, which hides the feature's device-facing
// capabilities; the two devices must match bit for bit, and the off run
// must show none of the feature's counters moving.
func TestBitmapOffBitIdentity(t *testing.T) {
	cfg := testConfig()
	mk := func() *leaftl.Scheme {
		return leaftl.New(8, cfg.Flash.PageSize, leaftl.WithCompactEvery(400))
	}
	off := newTestDevice(t, cfg, mk())
	s := mk()
	absent := newTestDevice(t, cfg, sansBitmap{s, s, s})
	for _, d := range []*Device{off, absent} {
		churnBitIdentity(t, d)
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameDevice(t, "bitmap off vs bitmap absent", off, absent)

	st := off.Stats()
	if st.GCPagesMoved == 0 || st.Mispredictions == 0 || st.ApproxReads == 0 {
		t.Fatalf("scenario too shallow to pin anything: %+v", st)
	}
	if st.ExactBitHits != 0 || st.Relearns != 0 {
		t.Errorf("bitmap off, yet ExactBitHits = %d and Relearns = %d", st.ExactBitHits, st.Relearns)
	}
	requireMissIdentity(t, st)
}
