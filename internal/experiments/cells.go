package experiments

import (
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/metrics"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// Cell is one point of the §4 evaluation grid (fig15/16): a scheme
// replaying a workload open-loop under a mapping-DRAM budget.
type Cell struct {
	// Scheme is a schemePresets name: full, paper, dftl or sftl.
	Scheme string `json:"scheme"`
	// Workload is a workload.TimedCatalog name or a trace file path.
	Workload string `json:"workload"`
	// Budget sizes the device's mapping+cache pool, from the first
	// write, at this fraction of the page-level map of its logical
	// space (8 B per LPA), the same bytes for every scheme; 0 keeps the
	// scale's pool.
	Budget float64 `json:"budget"`
	// Queues is the host queue count of the issue-time replay.
	Queues int `json:"queues"`
	// Speedup divides recorded inter-arrival times.
	Speedup float64 `json:"speedup"`
}

// CellsSpec lists the values of each grid axis; Cells runs their cross
// product. An empty list takes the default named on its field.
type CellsSpec struct {
	Schemes   []string  // default full, paper, dftl, sftl
	Workloads []string  // default zipf-hot
	Budgets   []float64 // default 0
	Queues    []int     // default 4
	Speedups  []float64 // default 1
	// Gamma is LeaFTL's error bound.
	Gamma int
}

func (s CellsSpec) withDefaults() CellsSpec {
	s.Schemes = orDefault(s.Schemes, "full", "paper", "dftl", "sftl")
	s.Workloads = orDefault(s.Workloads, "zipf-hot")
	s.Budgets = orDefault(s.Budgets, 0)
	s.Queues = orDefault(s.Queues, 4)
	s.Speedups = orDefault(s.Speedups, 1)
	return s
}

func orDefault[T any](vs []T, def ...T) []T {
	if len(vs) == 0 {
		return def
	}
	return vs
}

// validate rejects a cell no device built from cfg can run.
func (c Cell) validate(cfg ssd.Config) error {
	switch {
	case !(c.Budget >= 0 && c.Budget <= 1):
		return fmt.Errorf("cells: budget %v outside [0, 1]", c.Budget)
	case c.Queues < 1:
		return fmt.Errorf("cells: %d queues, want at least 1", c.Queues)
	case !(c.Speedup > 0):
		return fmt.Errorf("cells: speedup %v, want a positive number", c.Speedup)
	}
	if _, err := budgeted(cfg, c.Budget); err != nil {
		return fmt.Errorf("cells: %w", err)
	}
	return nil
}

// grid crosses the axes, workload outermost and speedup innermost.
func (s CellsSpec) grid() []Cell {
	cells := []Cell{{}}
	cross := func(n int, set func(c *Cell, i int)) {
		next := make([]Cell, 0, len(cells)*n)
		for _, c := range cells {
			for i := 0; i < n; i++ {
				set(&c, i)
				next = append(next, c)
			}
		}
		cells = next
	}
	cross(len(s.Workloads), func(c *Cell, i int) { c.Workload = s.Workloads[i] })
	cross(len(s.Schemes), func(c *Cell, i int) { c.Scheme = s.Schemes[i] })
	cross(len(s.Budgets), func(c *Cell, i int) { c.Budget = s.Budgets[i] })
	cross(len(s.Queues), func(c *Cell, i int) { c.Queues = s.Queues[i] })
	cross(len(s.Speedups), func(c *Cell, i int) { c.Speedup = s.Speedups[i] })
	return cells
}

// CellRun is one cell's outcome, in the units the table and the JSON
// report.
type CellRun struct {
	Cell
	Requests  int     `json:"requests"`
	KIOPS     float64 `json:"kiops"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	P999us    float64 `json:"p999_us"`
	WaitP99us float64 `json:"queue_wait_p99_us"`
	WAF       float64 `json:"waf"`
	// BudgetBytes is the budget's mapping+cache pool (0 when unbudgeted);
	// MapBytes is the full mapping size after the final flush and
	// ResidentBytes its DRAM-resident share.
	BudgetBytes   int `json:"budget_bytes"`
	MapBytes      int `json:"map_bytes"`
	ResidentBytes int `json:"resident_bytes"`
	// Device holds the device counters of the replay and its final flush
	// (reset after warm-up); Flash the flash array's counters since the
	// device was built, warm-up included; Journal the mapping-delta
	// journal's counters (zero without one).
	Device  ssd.Stats        `json:"device"`
	Flash   flash.Stats      `json:"flash"`
	Journal ftl.JournalStats `json:"journal"`
	// MappingDigest is the scheme's MappingDigest after the final flush:
	// it moves with the mapping's encoding, which StateDigest does not
	// see.
	MappingDigest string `json:"mapping_digest"`
	// Digest is the device's StateDigest after the final flush.
	Digest string `json:"state_digest"`
	// Result holds the replay's latency distributions.
	Result *trace.OpenLoopResult `json:"-"`
}

// Cells crosses spec's axes into cells and runs each one on its own
// warmed device: the simulator config with the budget's pool, a
// sequential fill of the workload's footprint (§4.1), metrics reset,
// an issue-time open-loop replay (trace.ReplayIssued), a final flush
// and CheckInvariants. A trace file is folded into the device with
// trace.FitTo; an untimed one arrives 20µs apart.
func (s *Suite) Cells(spec CellsSpec) ([]CellRun, Table, error) {
	spec = spec.withDefaults()
	if err := checkSchemes(spec.Schemes); err != nil {
		return nil, Table{}, fmt.Errorf("cells: %w", err)
	}
	cells := spec.grid()
	for _, c := range cells {
		if err := c.validate(s.simConfig("sim")); err != nil {
			return nil, Table{}, err
		}
	}
	loads := make(map[string][]trace.Request)
	for _, wl := range spec.Workloads {
		reqs, err := s.cellWorkload(wl)
		if err != nil {
			return nil, Table{}, err
		}
		loads[wl] = reqs
	}

	var runs []CellRun
	for _, c := range cells {
		run, _, err := s.cell(c, loads[c.Workload], spec.Gamma)
		if err != nil {
			return nil, Table{}, fmt.Errorf("cells %+v: %w", c, err)
		}
		runs = append(runs, run)
	}

	t := Table{
		ID:    "cells",
		Title: fmt.Sprintf("evaluation cells: %s scale, seed %d, gamma=%d", s.Scale.Name, s.Seed, spec.Gamma),
		Header: []string{"scheme", "workload", "budget", "queues", "speedup",
			"kIOPS", "p50", "p99", "p999", "wait p99", "WAF", "map", "resident",
			"metaR/req", "metaW/req", "journal a/f/chain", "state digest", "mapping digest"},
		Notes: "issue-time open-loop replay on a footprint-warmed device; budget = mapping+cache pool as a fraction of the 8 B/LPA page map, the same bytes for every scheme; map sizes read after the final flush",
	}
	for _, r := range runs {
		budget := "none"
		if r.Budget > 0 {
			budget = fmt.Sprintf("%g", r.Budget)
		}
		t.Rows = append(t.Rows, []string{
			r.Scheme, r.Workload, budget,
			fmt.Sprintf("%d", r.Queues),
			fmt.Sprintf("%gx", r.Speedup),
			fmt.Sprintf("%.1f", r.KIOPS),
			usF(r.P50us), usF(r.P99us), usF(r.P999us), usF(r.WaitP99us),
			f2(r.WAF),
			metrics.FormatBytes(int64(r.MapBytes)), metrics.FormatBytes(int64(r.ResidentBytes)),
			fmt.Sprintf("%.4f", float64(r.Device.MetaReads)/float64(r.Requests)),
			fmt.Sprintf("%.4f", float64(r.Device.MetaWrites)/float64(r.Requests)),
			fmt.Sprintf("%d/%d/%d", r.Journal.Appends, r.Journal.Folds, r.Journal.MaxChain),
			r.Digest, r.MappingDigest,
		})
	}
	return runs, t, nil
}

// cellWorkload returns a workload's requests inside the simulator's
// logical space: a timed generator's trace, or a trace file folded in.
func (s *Suite) cellWorkload(name string) ([]trace.Request, error) {
	logical := s.simConfig("sim").LogicalPages()
	if gen, ok := workload.TimedCatalog()[name]; ok {
		return gen.Generate(logical, s.Scale.Requests, s.Seed), nil
	}
	reqs, _, err := trace.Open(name, trace.Options{})
	if err != nil {
		return nil, fmt.Errorf("cells: workload %q is neither a timed workload nor a readable trace: %w", name, err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("cells: workload %q: empty trace", name)
	}
	return trace.FitTo(reqs, logical)
}

// cell runs one cell and returns its outcome with the device it ran on.
func (s *Suite) cell(c Cell, reqs []trace.Request, gamma int) (CellRun, *ssd.Device, error) {
	cfg, err := budgeted(s.simConfig("sim"), c.Budget)
	if err != nil {
		return CellRun{}, nil, err
	}
	sch := s.newScheme(c.Scheme, gamma, cfg)
	dev, err := ssd.New(cfg, sch)
	if err != nil {
		return CellRun{}, nil, err
	}
	if err := warmFootprint(dev, reqs); err != nil {
		return CellRun{}, nil, fmt.Errorf("warmup: %w", err)
	}
	run := CellRun{Cell: c}
	if c.Budget > 0 {
		run.BudgetBytes = int(cfg.DRAMBytes - cfg.BufferBytes())
	}
	dev.ResetMetrics()
	oc := trace.OpenLoopConfig{Queues: c.Queues, Speedup: c.Speedup}
	if !trace.Timed(reqs) {
		oc.Interarrival = 20 * time.Microsecond
	}
	res, err := trace.ReplayIssued(dev, reqs, oc)
	if err != nil {
		return CellRun{}, nil, err
	}
	if err := dev.Flush(); err != nil {
		return CellRun{}, nil, fmt.Errorf("flush: %w", err)
	}
	if err := dev.CheckInvariants(); err != nil {
		return CellRun{}, nil, err
	}

	sum := res.Latency.Summary()
	run.Requests = res.Requests
	run.KIOPS = res.IOPS() / 1e3
	run.P50us, run.P99us, run.P999us = micros(sum.P50), micros(sum.P99), micros(sum.P999)
	run.WaitP99us = micros(res.QueueWait.Summary().P99)
	run.WAF = dev.WAF()
	run.MapBytes, run.ResidentBytes = sch.FullSizeBytes(), sch.MemoryBytes()
	run.Device, run.Flash = dev.Stats(), dev.FlashStats()
	if j, ok := sch.(ftl.Journaled); ok {
		run.Journal = j.JournalStats()
	}
	run.Digest = fmt.Sprintf("%016x", dev.StateDigest())
	run.MappingDigest = fmt.Sprintf("%016x", sch.MappingDigest())
	run.Result = res
	return run, dev, nil
}

// micros converts a duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// usF renders float microseconds the way us renders a duration.
func usF(v float64) string { return fmt.Sprintf("%.1fµs", v) }

// warmFootprint sequentially writes every page the trace touches so the
// replay's reads find mapped pages, then drains the buffer.
func warmFootprint(dev *ssd.Device, reqs []trace.Request) error {
	maxEnd := 0
	for _, r := range reqs {
		if end := int(r.LPA) + r.Pages; end > maxEnd {
			maxEnd = end
		}
	}
	if err := warmPages(dev, maxEnd); err != nil {
		return err
	}
	return dev.Flush()
}

// warmPages sequentially writes [0, pages) in 64-page requests — the
// §4.1 warmup fill shared by Run, Cells and the torture cells.
func warmPages(dev *ssd.Device, pages int) error {
	const fill = 64
	for lpa := 0; lpa < pages; lpa += fill {
		n := fill
		if lpa+n > pages {
			n = pages - lpa
		}
		if _, err := dev.Write(addr.LPA(lpa), n); err != nil {
			return err
		}
	}
	return nil
}
