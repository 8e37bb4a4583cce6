package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/leaftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// TortureSpec parameterizes the seeded crash-torture matrix. Zero-valued
// fields select the defaults: {unbudgeted, 25% mapping budget} ×
// {exactness bitmap off, on}, five crash points per cell.
type TortureSpec struct {
	// Budgets are mapping-budget fractions of the scheme's full size;
	// 0 means unbudgeted (fully resident).
	Budgets []float64
	// Bitmap toggles the predicted-exact bitmap and GC-time relearning
	// (leaftl.WithExactBitmap) per cell.
	Bitmap []bool
	// CrashPoints is the number of seeded crashes injected per cell.
	CrashPoints int
	// Workload names a generator from workload.TimedCatalog.
	Workload string
	// Gamma is the learning error bound.
	Gamma int
	// Journal routes metadata persistence through the mapping-delta
	// journal, so crashes land between delta appends, mid-fold and
	// mid-journal-GC, and recovery must replay each group's delta chain
	// onto its base image.
	Journal bool
	// JournalPages caps the journal flash footprint (0 = half the
	// over-provisioned capacity). Torture cells shrink it so journal GC
	// actually cycles within a slice.
	JournalPages int
}

func (s TortureSpec) withDefaults() TortureSpec {
	if len(s.Budgets) == 0 {
		s.Budgets = []float64{0, 0.25}
	}
	if len(s.Bitmap) == 0 {
		s.Bitmap = []bool{false, true}
	}
	if s.CrashPoints < 1 {
		s.CrashPoints = 5
	}
	if s.Workload == "" {
		s.Workload = "mixed-rw"
	}
	if s.Gamma == 0 {
		s.Gamma = 8
	}
	return s
}

// TortureCell is one matrix cell's outcome: one device aged to a fully
// mapped state, then crashed, recovered and verified CrashPoints times
// in sequence (recoveries compound — each crash hits the state the
// previous recovery rebuilt).
type TortureCell struct {
	Budget float64
	Bitmap bool
	Seed   int64

	// Crashes counts injected crashes (a countdown that outlives its
	// replay slice records no crash; the torture test asserts the
	// matrix total anyway).
	Crashes int
	// Points histograms where the crashes landed, by crash-point name.
	Points map[string]int
	// MappingsRebuilt and MappingsRestored sum the recovery reports.
	MappingsRebuilt  int
	MappingsRestored int
	// JournalReplays sums the delta records recovery replayed onto GMD
	// base images (journal cells only).
	JournalReplays uint64
	// VerifiedLPAs counts post-recovery truth entries differentially
	// checked against the at-crash snapshot.
	VerifiedLPAs int
	// BufferedLost counts LPAs whose buffered-but-unflushed writes the
	// crash legally destroyed.
	BufferedLost int
}

// crashSignal is the private panic sentinel the countdown hook throws;
// anything else unwinding out of a replay is a real bug and re-panics.
type crashSignal struct{ point string }

// Torture runs the crash-torture matrix: for every mapping budget ×
// bitmap cell it ages a LeaFTL device to a fully mapped
// state, then repeatedly kills it at a seeded random crash point —
// mid-flush, between GC programs and the erase, during a metadata
// write — runs full firmware recovery into a fresh scheme, checks every
// device invariant, and differentially verifies the rebuilt state
// against a truth snapshot captured at the instant of the crash. Faults
// are off during torture so the comparison is exact: the only legal
// divergence is the write buffer's contents (lost by definition on a
// drive without power-loss protection).
func (s *Suite) Torture(spec TortureSpec) ([]TortureCell, Table, error) {
	spec = spec.withDefaults()
	gen, ok := workload.TimedCatalog()[spec.Workload]
	if !ok {
		return nil, Table{}, fmt.Errorf("torture: unknown timed workload %q", spec.Workload)
	}

	var cells []TortureCell
	cellIdx := 0
	for _, budget := range spec.Budgets {
		for _, bitmap := range spec.Bitmap {
			cellIdx++
			seed := s.Seed*1_000 + int64(cellIdx)
			cell, err := s.tortureCell(spec, gen, budget, bitmap, seed)
			if err != nil {
				return nil, Table{}, fmt.Errorf("torture budget=%.2f/bitmap=%v seed=%d: %w",
					budget, bitmap, seed, err)
			}
			cells = append(cells, *cell)
		}
	}

	t := Table{
		ID: "torture",
		Title: fmt.Sprintf("seeded crash-torture: %q workload, %d crash points/cell",
			spec.Workload, spec.CrashPoints),
		Header: []string{"budget", "bitmap", "seed", "crashes", "crash points",
			"rebuilt", "restored", "verified", "buffered-lost"},
		Notes: "each crash loses all controller RAM; recovery rebuilds from OOB + GMD and is diffed against an at-crash snapshot (write-buffer contents are the only legal loss)",
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			f2(c.Budget), fmt.Sprintf("%v", c.Bitmap), fmt.Sprintf("%d", c.Seed),
			fmt.Sprintf("%d", c.Crashes), pointsCell(c.Points),
			fmt.Sprintf("%d", c.MappingsRebuilt), fmt.Sprintf("%d", c.MappingsRestored),
			fmt.Sprintf("%d", c.VerifiedLPAs), fmt.Sprintf("%d", c.BufferedLost),
		})
	}
	return cells, t, nil
}

// tortureCell ages one device and crash-cycles it.
func (s *Suite) tortureCell(spec TortureSpec, gen workload.Generator, budget float64, bitmap bool, seed int64) (*TortureCell, error) {
	cfg := s.simConfig("sim")
	// §3.6 mid-range watermarks: on the aged device the free pool sits
	// just above the trigger, so crashes land mid-GC too.
	cfg.GCLowWater = 0.15
	cfg.GCHighWater = 0.25
	cfg.JournalPages = spec.JournalPages

	newScheme := func() *leaftl.Scheme {
		opts := []leaftl.Option{leaftl.WithCompactEvery(uint64(max(s.Scale.Requests/16, 1_000)))}
		if bitmap {
			opts = append(opts, leaftl.WithExactBitmap())
		}
		if spec.Journal {
			opts = append(opts, leaftl.WithJournal())
		}
		return leaftl.New(spec.Gamma, cfg.Flash.PageSize, opts...)
	}
	sch := newScheme()
	dev, err := ssd.New(cfg, sch)
	if err != nil {
		return nil, err
	}
	if err := warmPages(dev, dev.LogicalPages()); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("warmup flush: %w", err)
	}
	if budget > 0 {
		dev.SetMappingBudget(max(int(budget*float64(sch.FullSizeBytes())), 1))
	}

	rng := rand.New(rand.NewSource(seed))
	reqs := gen.Generate(dev.LogicalPages(), s.Scale.Requests, seed)
	slice := len(reqs) / spec.CrashPoints

	cell := &TortureCell{
		Budget: budget, Bitmap: bitmap, Seed: seed,
		Points: make(map[string]int),
	}
	for k := 0; k < spec.CrashPoints; k++ {
		// The countdown is drawn small relative to the hook-hit rate
		// (several hits per flush plus the GC and scrub paths), so each
		// slice virtually always crashes — spread across point names.
		countdown := 1 + rng.Intn(120)
		var atTok []uint64
		var atLost []bool
		var atBuf []addr.LPA
		dev.SetCrashHook(func(point string) {
			countdown--
			if countdown <= 0 {
				atTok, atLost = dev.TruthSnapshot()
				atBuf = dev.BufferedLPAs()
				panic(crashSignal{point: point})
			}
		})
		point := replayUntilCrash(dev, reqs[k*slice:(k+1)*slice])
		dev.SetCrashHook(nil)
		if point == "" {
			continue // countdown outlived the slice; no crash this round
		}
		cell.Crashes++
		cell.Points[point]++

		// The crash destroyed all controller RAM; recovery rebuilds
		// firmware state from flash into a fresh scheme.
		rep, err := dev.Recover(newScheme())
		if err != nil {
			return nil, fmt.Errorf("crash %d at %q: recover: %w", k, point, err)
		}
		cell.MappingsRebuilt += rep.MappingsRebuilt
		cell.MappingsRestored += rep.MappingsRestored
		cell.JournalReplays += rep.JournalDeltasReplayed
		if err := dev.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("crash %d at %q: %w", k, point, err)
		}

		// Differential verification against the at-crash snapshot: with
		// faults off nothing may be lost, and every LPA outside the
		// write buffer must come back holding exactly its newest data.
		buffered := make(map[addr.LPA]bool, len(atBuf))
		for _, l := range atBuf {
			buffered[l] = true
		}
		cell.BufferedLost += len(atBuf)
		postTok, postLost := dev.TruthSnapshot()
		for l := range postTok {
			lpa := addr.LPA(l)
			if buffered[lpa] {
				continue // unflushed at crash; any older state is legal
			}
			if postLost[l] && !atLost[l] {
				return nil, fmt.Errorf("crash %d at %q: LPA %d lost with faults off", k, point, lpa)
			}
			if postTok[l] != atTok[l] {
				return nil, fmt.Errorf("crash %d at %q: LPA %d recovered token %#x, want %#x (stale or corrupt copy resurrected)",
					k, point, lpa, postTok[l], atTok[l])
			}
			cell.VerifiedLPAs++
		}
		// Read-verify a sample through the full host path: the device
		// self-checks payload tokens and prediction windows.
		for l := 0; l < len(postTok); l += max(len(postTok)/256, 1) {
			if postTok[l] == 0 {
				continue
			}
			if _, err := dev.Read(addr.LPA(l), 1); err != nil {
				return nil, fmt.Errorf("crash %d at %q: post-recovery read of LPA %d: %w", k, point, l, err)
			}
		}
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	return cell, dev.CheckInvariants()
}

// replayUntilCrash replays reqs, converting the crash hook's panic into
// the crash-point name ("" when the slice completes uncrashed).
func replayUntilCrash(dev *ssd.Device, reqs []trace.Request) (point string) {
	defer func() {
		if r := recover(); r != nil {
			cs, ok := r.(crashSignal)
			if !ok {
				panic(r)
			}
			point = cs.point
		}
	}()
	if err := trace.Replay(dev, reqs); err != nil {
		// Faults are off during torture; any replay error is a bug and
		// must fail the harness, which treats it as an impossible point.
		panic(fmt.Sprintf("torture replay: %v", err))
	}
	return ""
}

// pointsCell renders a crash-point histogram compactly and
// deterministically.
func pointsCell(points map[string]int) string {
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", n, points[n])
	}
	return out
}

// FaultSweepSpec parameterizes the aged-device reliability sweep.
type FaultSweepSpec struct {
	// RBERs are the base raw bit error rates swept (DefaultFaults
	// scaling derives wear/retention/disturb growth and op-failure
	// rates from each).
	RBERs []float64
	// Workload names a generator from workload.TimedCatalog.
	Workload string
	Gamma    int
	// ScrubDisturbReads and ScrubRetentionAge are the read-reclaim
	// thresholds under test.
	ScrubDisturbReads uint32
	ScrubRetentionAge time.Duration
	// AgeStep jumps the virtual clock every 1024 requests, so retention
	// error actually accrues on replay timescales.
	AgeStep time.Duration
}

func (s FaultSweepSpec) withDefaults() FaultSweepSpec {
	if len(s.RBERs) == 0 {
		// 1e-7 healthy, 1e-4 badly aged, 5e-4 end of life (retention
		// pushes pages past soft-decode range; expect host UECCs and
		// grown bad blocks).
		s.RBERs = []float64{1e-7, 1e-5, 5e-5, 1e-4, 5e-4}
	}
	if s.Workload == "" {
		s.Workload = "mixed-rw"
	}
	if s.Gamma == 0 {
		s.Gamma = 8
	}
	if s.ScrubDisturbReads == 0 {
		s.ScrubDisturbReads = 5_000
	}
	if s.ScrubRetentionAge == 0 {
		s.ScrubRetentionAge = 45 * time.Second
	}
	if s.AgeStep == 0 {
		s.AgeStep = 2 * time.Second
	}
	return s
}

// FaultRun is one RBER point of the reliability sweep.
type FaultRun struct {
	RBER      float64
	Seed      int64
	HostUECCs uint64 // reads surfaced to the host as uncorrectable
	Flash     flash.Stats
	Stats     ssd.Stats
	WAF       float64
}

// FaultSweep ages a LeaFTL device at each RBER point and replays a
// read/write mix under the full fault model — ECC retries, OOB
// reconstruction, read-reclaim scrubbing, bad-block retirement — with
// the clock jumped periodically so retention error accrues. Host-level
// UECCs are tolerated and counted (the device's contract is explicit
// failure, never silent corruption); any other error aborts the sweep.
func (s *Suite) FaultSweep(spec FaultSweepSpec) ([]FaultRun, Table, error) {
	spec = spec.withDefaults()
	gen, ok := workload.TimedCatalog()[spec.Workload]
	if !ok {
		return nil, Table{}, fmt.Errorf("faultsweep: unknown timed workload %q", spec.Workload)
	}

	var runs []FaultRun
	for i, rber := range spec.RBERs {
		seed := s.Seed*100 + int64(i)
		cfg := s.simConfig("sim")
		cfg.Flash.Fault = flash.DefaultFaults(seed, rber)
		cfg.ScrubDisturbReads = spec.ScrubDisturbReads
		cfg.ScrubRetentionAge = spec.ScrubRetentionAge
		sch := s.newScheme("LeaFTL", spec.Gamma, cfg)
		dev, err := ssd.New(cfg, sch)
		if err != nil {
			return nil, Table{}, fmt.Errorf("faultsweep rber=%v: %w", rber, err)
		}
		if err := warmPages(dev, dev.LogicalPages()); err != nil {
			return nil, Table{}, fmt.Errorf("faultsweep rber=%v: warmup: %w", rber, err)
		}
		if err := dev.Flush(); err != nil {
			return nil, Table{}, fmt.Errorf("faultsweep rber=%v: warmup flush: %w", rber, err)
		}
		dev.ResetMetrics()

		reqs := gen.Generate(dev.LogicalPages(), s.Scale.Requests, seed)
		var hostUECCs uint64
		for j, r := range reqs {
			if j%1024 == 1023 {
				dev.AdvanceTo(dev.Now() + spec.AgeStep)
			}
			var err error
			switch r.Op {
			case trace.OpRead:
				_, err = dev.Read(r.LPA, r.Pages)
			case trace.OpWrite:
				_, err = dev.Write(r.LPA, r.Pages)
			}
			if err != nil {
				var uecc *ssd.UECCError
				if errors.As(err, &uecc) {
					hostUECCs++
					continue
				}
				return nil, Table{}, fmt.Errorf("faultsweep rber=%v seed=%d: request %d (%s): %w", rber, seed, j, r, err)
			}
		}
		if err := dev.Flush(); err != nil {
			var uecc *ssd.UECCError
			if !errors.As(err, &uecc) {
				return nil, Table{}, fmt.Errorf("faultsweep rber=%v seed=%d: flush: %w", rber, seed, err)
			}
		}
		if err := dev.CheckInvariants(); err != nil {
			return nil, Table{}, fmt.Errorf("faultsweep rber=%v seed=%d: %w", rber, seed, err)
		}
		runs = append(runs, FaultRun{
			RBER: rber, Seed: seed, HostUECCs: hostUECCs,
			Flash: dev.FlashStats(), Stats: dev.Stats(), WAF: dev.WAF(),
		})
	}

	t := Table{
		ID: "faultsweep",
		Title: fmt.Sprintf("reliability sweep: %q workload, %d requests, aged device",
			spec.Workload, s.Scale.Requests),
		Header: []string{"RBER", "corrected", "retries", "data-UECC", "OOB-UECC", "host-UECC",
			"reconstructed", "scrubs", "retired", "GC-lost", "WAF"},
		Notes: "corrected/retries = ECC activity; host-UECC = reads explicitly failed to the host (never silent); reconstructed = reverse mappings rebuilt from sibling OOB windows",
	}
	for _, r := range runs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", r.RBER),
			fmt.Sprintf("%d", r.Flash.CorrectedReads),
			fmt.Sprintf("%d", r.Flash.ECCRetries),
			fmt.Sprintf("%d", r.Flash.DataUECC),
			fmt.Sprintf("%d", r.Flash.OOBUECC),
			fmt.Sprintf("%d", r.HostUECCs),
			fmt.Sprintf("%d", r.Stats.OOBReconstructed),
			fmt.Sprintf("%d", r.Stats.ScrubRelocations),
			fmt.Sprintf("%d", r.Stats.RetiredBlocks),
			fmt.Sprintf("%d", r.Stats.GCDataLoss),
			f2(r.WAF),
		})
	}
	return runs, t, nil
}
