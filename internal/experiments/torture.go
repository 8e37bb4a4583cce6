package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// tortureWorkload is the timed generator the torture cells and the
// fault sweep replay.
const tortureWorkload = "mixed-rw"

// TortureSpec parameterizes the seeded crash-torture matrix. Zero-valued
// fields select the defaults: {unbudgeted, 0.5 % budget} × {paper,
// full}, five crash points per cell.
type TortureSpec struct {
	// Budgets size the mapping+cache pool as fractions of the 8 B/LPA
	// page map of the device's logical space, as Cell.Budget does; 0
	// keeps the scale's pool.
	Budgets []float64
	// Schemes are schemePresets names: paper is the learned table
	// alone, full adds the mapping-delta journal and the exactness
	// bitmap (the benchmark's scheme); dftl and sftl also run.
	Schemes []string
	// CrashPoints is the number of seeded crashes injected per cell.
	CrashPoints int
	// Gamma is the learning error bound.
	Gamma int
}

func (s TortureSpec) withDefaults() TortureSpec {
	s.Budgets = orDefault(s.Budgets, 0, 0.005)
	s.Schemes = orDefault(s.Schemes, "paper", "full")
	if s.CrashPoints < 1 {
		s.CrashPoints = 5
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
	Budget float64 `json:"budget"`
	Scheme string  `json:"scheme"`
	Seed   int64   `json:"seed"`

	// Crashes counts injected crashes (a countdown that outlives its
	// replay slice records no crash; the torture test asserts the
	// matrix total anyway).
	Crashes int `json:"crashes"`
	// Points histograms where the crashes landed, by crash-point name.
	Points map[string]int `json:"points"`
	// MappingsRebuilt and MappingsRestored sum the recovery reports.
	MappingsRebuilt  int `json:"mappings_rebuilt"`
	MappingsRestored int `json:"mappings_restored"`
	// JournalReplays sums the delta records recovery replayed onto GMD
	// base images (journaled presets only).
	JournalReplays uint64 `json:"journal_replays"`
	// VerifiedLPAs counts post-recovery truth entries differentially
	// checked against the at-crash snapshot.
	VerifiedLPAs int `json:"verified_lpas"`
	// BufferedLost counts LPAs whose buffered-but-unflushed writes the
	// crash legally destroyed.
	BufferedLost int `json:"buffered_lost"`
}

// crashSignal is the private panic sentinel the countdown hook throws;
// anything else unwinding out of a replay is a real bug and re-panics.
type crashSignal struct{ point string }

// Torture runs the crash-torture matrix: for every mapping budget ×
// scheme preset it ages a device to a fully mapped
// state, then repeatedly kills it at a seeded random crash point —
// mid-flush, between GC programs and the erase, during a metadata
// write — and recovers and verifies it (recoverAndVerify). Faults
// are off during torture so the comparison is exact: the only legal
// divergence is the write buffer's contents (lost by definition on a
// drive without power-loss protection).
func (s *Suite) Torture(spec TortureSpec) ([]TortureCell, Table, error) {
	spec = spec.withDefaults()
	gen := workload.TimedCatalog()[tortureWorkload]
	if err := checkSchemes(spec.Schemes); err != nil {
		return nil, Table{}, fmt.Errorf("torture: %w", err)
	}

	var cells []TortureCell
	cellIdx := 0
	for _, budget := range spec.Budgets {
		for _, scheme := range spec.Schemes {
			cellIdx++
			seed := s.Seed*1_000 + int64(cellIdx)
			cell, err := s.tortureCell(spec, gen, budget, scheme, seed)
			if err != nil {
				return nil, Table{}, fmt.Errorf("torture budget=%g/%s seed=%d: %w",
					budget, scheme, seed, err)
			}
			cells = append(cells, *cell)
		}
	}

	t := Table{
		ID: "torture",
		Title: fmt.Sprintf("seeded crash-torture: %q workload, %d crash points/cell",
			tortureWorkload, spec.CrashPoints),
		Header: []string{"budget", "scheme", "seed", "crashes", "crash points",
			"rebuilt", "restored", "replayed", "verified", "buffered-lost"},
		Notes: "each crash loses all controller RAM; recovery rebuilds from OOB + GMD (+ journal deltas) and is diffed against an at-crash snapshot (write-buffer contents are the only legal loss)",
	}
	for _, c := range cells {
		budget := f2(c.Budget) // "0.00" for the unbudgeted cells
		if c.Budget > 0 {
			budget = fmt.Sprintf("%g", c.Budget)
		}
		t.Rows = append(t.Rows, []string{
			budget, c.Scheme, fmt.Sprintf("%d", c.Seed),
			fmt.Sprintf("%d", c.Crashes), pointsCell(c.Points),
			fmt.Sprintf("%d", c.MappingsRebuilt), fmt.Sprintf("%d", c.MappingsRestored),
			fmt.Sprintf("%d", c.JournalReplays),
			fmt.Sprintf("%d", c.VerifiedLPAs), fmt.Sprintf("%d", c.BufferedLost),
		})
	}
	return cells, t, nil
}

// tortureCell ages one device and crash-cycles it.
func (s *Suite) tortureCell(spec TortureSpec, gen workload.Generator, budget float64, scheme string, seed int64) (*TortureCell, error) {
	cfg, err := budgeted(s.simConfig("sim"), budget)
	if err != nil {
		return nil, err
	}
	// §3.6 mid-range watermarks: on the aged device the free pool sits
	// just above the trigger, so crashes land mid-GC too.
	cfg.GCLowWater = 0.15
	cfg.GCHighWater = 0.25
	// One translation block of journal: journaled presets cycle journal
	// GC within a slice, so crashes land between delta appends,
	// mid-fold and mid-journal-GC.
	cfg.JournalPages = cfg.Flash.PagesPerBlock

	compact := leaftl.WithCompactEvery(uint64(max(s.Scale.Requests/16, 1_000)))
	newScheme := func() ftl.Scheme { return s.newScheme(scheme, spec.Gamma, cfg, compact) }
	dev, err := ssd.New(cfg, newScheme())
	if err != nil {
		return nil, err
	}
	if err := warmPages(dev, dev.LogicalPages()); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("warmup flush: %w", err)
	}

	rng := rand.New(rand.NewSource(seed))
	reqs := gen.Generate(dev.LogicalPages(), s.Scale.Requests, seed)
	slice := len(reqs) / spec.CrashPoints

	cell := &TortureCell{
		Budget: budget, Scheme: scheme, Seed: seed,
		Points: make(map[string]int),
	}
	for k := 0; k < spec.CrashPoints; k++ {
		// The countdown is drawn small relative to the hook-hit rate
		// (several hits per flush plus the GC and scrub paths), so each
		// slice virtually always crashes — spread across point names.
		countdown := 1 + rng.Intn(120)
		var at crashSnapshot
		dev.SetCrashHook(func(point string) {
			countdown--
			if countdown <= 0 {
				at = snapshotAtCrash(dev)
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

		rep, verified, err := recoverAndVerify(dev, newScheme(), at)
		if err != nil {
			return nil, fmt.Errorf("crash %d at %q: %w", k, point, err)
		}
		cell.MappingsRebuilt += rep.MappingsRebuilt
		cell.MappingsRestored += rep.MappingsRestored
		cell.JournalReplays += rep.JournalDeltasReplayed
		cell.VerifiedLPAs += verified
		cell.BufferedLost += len(at.buffered)
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
	Gamma int
	// AgeStep jumps the virtual clock every 1024 requests, so retention
	// error actually accrues on replay timescales.
	AgeStep time.Duration
}

// Fault-sweep devices scrub a block after this many reads since its
// erase, or once its oldest page has sat programmed this long.
const (
	faultScrubDisturbReads = 5_000
	faultScrubRetentionAge = 45 * time.Second
)

func (s FaultSweepSpec) withDefaults() FaultSweepSpec {
	// 1e-7 healthy, 1e-4 badly aged, 5e-4 end of life (retention
	// pushes pages past soft-decode range; expect host UECCs and
	// grown bad blocks).
	s.RBERs = orDefault(s.RBERs, 1e-7, 1e-5, 5e-5, 1e-4, 5e-4)
	if s.Gamma == 0 {
		s.Gamma = 8
	}
	if s.AgeStep == 0 {
		s.AgeStep = 2 * time.Second
	}
	return s
}

// FaultRun is one RBER point of the reliability sweep.
type FaultRun struct {
	RBER      float64     `json:"rber"`
	Seed      int64       `json:"seed"`
	HostUECCs uint64      `json:"host_ueccs"` // reads surfaced to the host as uncorrectable
	Flash     flash.Stats `json:"flash"`
	Stats     ssd.Stats   `json:"device"`
	WAF       float64     `json:"waf"`
}

// FaultSweep ages a LeaFTL device at each RBER point and replays a
// read/write mix under the full fault model — ECC retries, OOB
// reconstruction, read-reclaim scrubbing, bad-block retirement — with
// the clock jumped periodically so retention error accrues. Host-level
// UECCs are tolerated and counted (the device's contract is explicit
// failure, never silent corruption); any other error aborts the sweep.
func (s *Suite) FaultSweep(spec FaultSweepSpec) ([]FaultRun, Table, error) {
	spec = spec.withDefaults()
	gen := workload.TimedCatalog()[tortureWorkload]

	var runs []FaultRun
	for i, rber := range spec.RBERs {
		seed := s.Seed*100 + int64(i)
		cfg := s.simConfig("sim")
		cfg.Flash.Fault = flash.DefaultFaults(seed, rber)
		cfg.ScrubDisturbReads = faultScrubDisturbReads
		cfg.ScrubRetentionAge = faultScrubRetentionAge
		sch := s.newScheme("paper", spec.Gamma, cfg)
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
			tortureWorkload, s.Scale.Requests),
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
