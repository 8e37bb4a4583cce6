package ssd

import (
	"runtime"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// journalChurn ages a budgeted device (journalChurnConfig) into
// steady-state demand paging: warm half the logical space, then churn a
// hot region so dirty evictions — the metadata-persistence path the
// journal replaces — run throughout. The op mix mirrors
// churnBitIdentity's but under a budget, so MetaWrites are dominated by
// writebacks rather than maintenance sweeps.
func journalChurn(t *testing.T, d *Device) {
	t.Helper()
	rng := seededRand(t, 9021)
	logical := d.LogicalPages()
	for lpa := 0; lpa < logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	hot := logical / 5
	for op := 0; op < 6000; op++ {
		switch {
		case op%5 < 2:
			lpa := rng.Intn(logical / 2)
			n := 1 + rng.Intn(3)
			if lpa+n > logical {
				n = logical - lpa
			}
			if _, err := d.Write(addr.LPA(lpa), n); err != nil {
				t.Fatal(err)
			}
		case op%5 == 2:
			for i := 0; i < 4; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(hot)), 1); err != nil {
					t.Fatal(err)
				}
			}
		default:
			lpa := rng.Intn(logical / 4)
			n := 1 + rng.Intn(4)
			if lpa+n > logical {
				n = logical - lpa
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
}

// journalChurnScheme builds the scheme of the journal bit-identity
// tests: γ=8 LeaFTL, compaction every 400 commits, plus any caller
// options (the journal toggle under test).
func journalChurnScheme(cfg Config, opts ...leaftl.Option) *leaftl.Scheme {
	base := []leaftl.Option{leaftl.WithCompactEvery(400)}
	return leaftl.New(8, cfg.Flash.PageSize, append(base, opts...)...)
}

// journalChurnConfig gives the churn device a 48 B mapping+cache pool,
// a quarter of the learned table the warm fill builds.
func journalChurnConfig() Config { return budgetedConfig(48) }

// journalChurnDevice builds the budgeted churn device around it.
func journalChurnDevice(t *testing.T, opts ...leaftl.Option) *Device {
	t.Helper()
	cfg := journalChurnConfig()
	return newTestDevice(t, cfg, journalChurnScheme(cfg, opts...))
}

// TestJournalOffBitIdentity pins the journal-off metadata path to the
// pre-journal behavior: with the option absent the pager must write full
// group images exactly as a scheme that has no journal capability at
// all. The budgeted churn runs on the scheme as built and behind
// sansJournal (demand paging without ftl.Journaled); the two devices
// must match bit for bit, and the off run must really have paged.
func TestJournalOffBitIdentity(t *testing.T) {
	off := journalChurnDevice(t)
	journalChurn(t, off)
	cfg := journalChurnConfig()
	s := journalChurnScheme(cfg)
	absent := newTestDevice(t, cfg, sansJournal{s, s, s, s, s, s})
	journalChurn(t, absent)
	requireSameDevice(t, "journal off vs journal absent", off, absent)

	st := off.Stats()
	if st.MetaReads == 0 || st.MetaWrites == 0 || st.GCErases == 0 {
		t.Fatalf("scenario too shallow to pin anything (no paging or no GC): %+v", st)
	}
	if js := off.Scheme().(ftl.Journaled).JournalStats(); js != (ftl.JournalStats{}) {
		t.Errorf("journal off, yet its counters moved: %+v", js)
	}
}

// TestJournalDigestEquality runs the budgeted churn with the journal on
// and off and demands identical device state digests: journaling changes
// how metadata persistence is charged (delta appends instead of full
// image rewrites), never what any mapping resolves to. The journaled run
// must also actually journal: nonzero appends, bases and folds.
func TestJournalDigestEquality(t *testing.T) {
	off := journalChurnDevice(t)
	journalChurn(t, off)
	on := journalChurnDevice(t, leaftl.WithJournal())
	journalChurn(t, on)

	if got, want := on.StateDigest(), off.StateDigest(); got != want {
		t.Errorf("journal-on digest %#x != journal-off digest %#x", got, want)
	}

	j, ok := on.Scheme().(ftl.Journaled)
	if !ok || !j.JournalEnabled() {
		t.Fatal("journal option did not enable the journal")
	}
	js := j.JournalStats()
	if js.Appends == 0 {
		t.Error("journaled churn appended no delta records")
	}
	if js.Bases == 0 {
		t.Error("journaled churn wrote no base images")
	}
	if js.Folds == 0 {
		t.Error("journaled churn never folded a chain")
	}
	if js.Pages == 0 || js.Blocks == 0 {
		t.Errorf("journal reports empty footprint (%d pages, %d blocks) after churn", js.Pages, js.Blocks)
	}
	if js.MaxChain > 8 {
		t.Errorf("live chain of %d records exceeds the fold threshold", js.MaxChain)
	}

}

// TestDeviceParallelCommitMatchesSerial runs the budgeted, journaled,
// bitmap-on churn — flushes, GC relocation and demand paging in a 48 B
// pool — once with GOMAXPROCS = 1, where the learned table
// commits every batch on the caller, and once with GOMAXPROCS = 2, where
// it spreads a batch's group runs over a helper. The two devices must end
// bit-identical.
func TestDeviceParallelCommitMatchesSerial(t *testing.T) {
	run := func(procs int) *Device {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := journalChurnDevice(t, leaftl.WithJournal(), leaftl.WithExactBitmap())
		journalChurn(t, d)
		return d
	}
	serial, parallel := run(1), run(2)
	requireSameDevice(t, "1 vs 2 workers", serial, parallel)
	js, jp := serial.Scheme().(ftl.Journaled).JournalStats(), parallel.Scheme().(ftl.Journaled).JournalStats()
	if js != jp {
		t.Errorf("journal counters diverged:\n  %+v\n  %+v", js, jp)
	}
	if st := serial.Stats(); st.MetaReads == 0 || st.GCErases == 0 || st.Relearns == 0 || js.Appends == 0 {
		t.Fatalf("churn too shallow (no paging, GC, relearning or journaling): %+v, %+v", st, js)
	}
}

// TestJournalGCCrashRecovery kills the device at the instant journal GC
// elects its first victim block — the hook fires before any fold or
// erase mutates the journal — then recovers into a fresh journaled
// scheme and differentially verifies every surviving mapping. The
// journal cap is squeezed to a single translation block so spilling into
// a second block forces GC quickly.
func TestJournalGCCrashRecovery(t *testing.T) {
	cfg := budgetedConfig(48)
	cfg.JournalPages = cfg.Flash.PagesPerBlock
	newScheme := func() ftl.Scheme {
		return leaftl.New(8, cfg.Flash.PageSize, leaftl.WithCompactEvery(400), leaftl.WithJournal())
	}
	d := newTestDevice(t, cfg, newScheme())
	rng := seededRand(t, 4477)
	logical := d.LogicalPages()

	for lpa := 0; lpa < logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash at a journal GC with at least one live delta chain (the very
	// first GC can fire while the journal is all base images — recovery
	// would have no tail to replay and the assertion below no teeth).
	type crashMark struct{ point string }
	j := d.Scheme().(ftl.Journaled)
	armed := true
	d.SetCrashHook(func(point string) {
		if armed && point == "journal.gc" && j.JournalStats().MaxChain > 0 {
			armed = false
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
		for i := 0; i < 60000; i++ {
			if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
				t.Fatal(err)
			}
		}
		t.Fatal("workload finished without triggering journal GC")
	}()
	d.SetCrashHook(nil)
	if crashed != "journal.gc" {
		t.Fatalf("crashed at %q, want journal.gc", crashed)
	}

	rep, err := d.Recover(newScheme())
	if err != nil {
		t.Fatalf("recover after mid-journal-GC crash: %v", err)
	}
	if rep.GroupsRestored == 0 {
		t.Error("recovery restored no journaled groups")
	}
	if rep.JournalDeltasReplayed == 0 {
		t.Error("recovery replayed no journal deltas")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("after mid-journal-GC crash recovery: %v", err)
	}
	tokens, _ := d.TruthSnapshot()
	for l, tok := range tokens {
		if tok == 0 {
			continue
		}
		if _, err := d.Read(addr.LPA(l), 1); err != nil {
			t.Fatalf("post-recovery read of LPA %d: %v", l, err)
		}
	}
	t.Logf("crashed at %q, restored %d groups, replayed %d deltas, re-learned %d mappings",
		crashed, rep.GroupsRestored, rep.JournalDeltasReplayed, rep.MappingsRebuilt)
}
