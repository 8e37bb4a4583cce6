package ssd

import (
	"runtime"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// journalChurn ages a budgeted device (journalChurnConfig) into
// steady-state demand paging: warm half the logical space, then churn a
// hot region so dirty evictions — the journal's appends — run
// throughout. The op mix mirrors churnBitIdentity's but under a budget,
// so MetaWrites are dominated by writebacks rather than maintenance
// sweeps.
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

// journalChurnScheme builds the scheme of the budgeted churn tests: γ=8
// LeaFTL, compaction every 400 commits, plus any caller options.
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

// TestDeviceParallelCommitMatchesSerial runs the budgeted, journaled,
// full-preset churn — flushes, GC relocation and demand paging in a 48 B
// pool — once with GOMAXPROCS = 1, where the learned table
// commits every batch on the caller, and once with GOMAXPROCS = 2, where
// it spreads a batch's group runs over a helper. The two devices must end
// bit-identical.
func TestDeviceParallelCommitMatchesSerial(t *testing.T) {
	run := func(procs int) *Device {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := journalChurnDevice(t, leaftl.WithExactBitmap())
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

// TestJournalGCCrashRecovery kills the device inside journal GC, as it
// is about to re-append a victim block's live record and before the
// block is erased, then recovers into a fresh scheme and
// differentially verifies every surviving mapping. The
// journal cap is squeezed to a single translation block so spilling into
// a second block forces GC quickly.
func TestJournalGCCrashRecovery(t *testing.T) {
	cfg := budgetedConfig(48)
	cfg.JournalPages = cfg.Flash.PagesPerBlock
	newScheme := func() ftl.Scheme {
		return leaftl.New(8, cfg.Flash.PageSize, leaftl.WithCompactEvery(400))
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

	// Crash once GC has already re-appended at least one record:
	// recovery must then restore records GC moved beside ones still in
	// a victim block.
	type crashMark struct{ point string }
	j := d.Scheme().(ftl.Journaled)
	armed := true
	d.SetCrashHook(func(point string) {
		if armed && point == "journal.fold" && j.JournalStats().Folds > 0 {
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
	if crashed != "journal.fold" {
		t.Fatalf("crashed at %q, want journal.fold", crashed)
	}

	rep, err := d.Recover(newScheme())
	if err != nil {
		t.Fatalf("recover after mid-journal-GC crash: %v", err)
	}
	if rep.GroupsRestored == 0 {
		t.Error("recovery restored no journaled groups")
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
	t.Logf("crashed at %q, restored %d groups, re-learned %d mappings",
		crashed, rep.GroupsRestored, rep.MappingsRebuilt)
}

// TestJournalSpreadsTranslationPages pins where LeaFTL's translation
// pages land. The device routes a page to die id mod channels, and the
// journal numbers its pages in log order, so the pages a scheme writes
// back and demand-loads over many maintenance rounds spread over the
// dies instead of queueing on one.
func TestJournalSpreadsTranslationPages(t *testing.T) {
	const groups, rounds = 64, 20
	dies := uint64(flash.SimulatorDefaults().Channels)
	s := leaftl.New(4, 4096, leaftl.WithCompactEvery(1))
	s.ConfigureJournal(256, 1<<20)
	rng := seededRand(t, 64)
	ppa := addr.PPA(0)
	// commit writes every stride-th LPA of group g from offset off.
	commit := func(g, off, stride int) ftl.Cost {
		var pairs []addr.Mapping
		for l := off; l < addr.GroupSize; l += stride {
			pairs = append(pairs, addr.Mapping{LPA: addr.LPA(g*addr.GroupSize + l), PPA: ppa})
			ppa += addr.PPA(1 + rng.Intn(3))
		}
		return s.Commit(pairs)
	}
	for g := 0; g < groups; g++ {
		commit(g, 0, 1)
	}
	s.SetBudget(s.MemoryBytes() / 2)

	written, read := map[uint64]int{}, map[uint64]int{}
	tally := func(c ftl.Cost) {
		for _, id := range c.WriteIDs {
			written[id%dies]++
		}
		for _, id := range c.ReadIDs {
			read[id%dies]++
		}
	}
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 16; i++ {
			tally(commit(rng.Intn(groups), rng.Intn(16), 2+rng.Intn(14)))
			tr, _ := s.Translate(addr.LPA(rng.Intn(groups * addr.GroupSize)))
			tally(tr.Cost)
		}
		tally(s.Maintain(uint64(round)))
	}
	if len(written) < int(dies)/2 || len(read) < int(dies)/2 {
		t.Errorf("translation-page writes fell on %d of %d dies (%v), reads on %d (%v); want at least %d each",
			len(written), dies, written, len(read), read, dies/2)
	}
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}
