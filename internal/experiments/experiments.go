// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the simulated SSD. Each FigNN function returns a
// Table of the same rows/series the paper plots, with the paper's values
// in its Notes; cmd/leaftl-bench prints them.
//
// Runs are memoized inside a Suite: several figures share the same
// (config, workload, scheme, gamma) simulation, which is executed once
// and summarized into a RunOut.
package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"leaftl/internal/core"
	"leaftl/internal/dftl"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/sftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// Table is one regenerated figure or table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table as aligned ASCII.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "-- %s\n", t.Notes)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored Markdown table.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s: %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "\n*%s*\n", t.Notes)
	}
	return sb.String()
}

// Scale sizes the simulations. The paper's 2TB device is scaled down;
// all reported quantities are ratios, which survive scaling.
type Scale struct {
	Name          string
	BlocksPerChan int // 16 channels × 256 pages × 4KB each
	BufferPages   int // write buffer (the paper's default is 8MB)
	// AvailBytes is the DRAM left for mapping structures + data cache
	// after the write buffer. The paper's 2TB/1GB setup leaves the
	// mapping table ~4× larger than this pool; scales preserve that
	// starvation ratio so the Figure 16 effects reproduce.
	AvailBytes int64
	Requests   int // trace length per run
}

// QuickScale keeps the full suite under a couple of minutes — used by
// tests and the default bench run: a 768MB device, 2MB buffer, 96KB
// mapping+cache pool.
func QuickScale() Scale {
	return Scale{Name: "quick", BlocksPerChan: 48, BufferPages: 512, AvailBytes: 96 << 10, Requests: 40_000}
}

// MicroScale is for unit tests and testing.B figure benchmarks: seconds
// per figure, same DRAM-starvation ratios.
func MicroScale() Scale {
	return Scale{Name: "micro", BlocksPerChan: 16, BufferPages: 256, AvailBytes: 48 << 10, Requests: 8_000}
}

// FullScale is the default for cmd/leaftl-bench -full: a 4GB device with
// the paper's 8MB buffer and a pool sized between LeaFTL's learned table
// and SFTL's condensed table, reproducing the paper's regime where only
// the learned mapping stays fully resident.
func FullScale() Scale {
	return Scale{Name: "full", BlocksPerChan: 256, BufferPages: 2048, AvailBytes: 640 << 10, Requests: 400_000}
}

// Suite memoizes simulation runs across figures.
type Suite struct {
	Scale Scale
	Seed  int64
	runs  map[runKey]*RunOut
}

// NewSuite returns a Suite at the given scale.
func NewSuite(s Scale, seed int64) *Suite {
	return &Suite{Scale: s, Seed: seed, runs: make(map[runKey]*RunOut)}
}

type runKey struct {
	cfg      string // "sim", "sim-capped", "proto", "avail:N", "page:N", "nosort"
	workload string
	scheme   string // a schemePresets name
	gamma    int
}

// RunOut summarizes one finished simulation (the device itself is
// discarded to bound memory across the suite).
type RunOut struct {
	Workload string
	Scheme   string
	Gamma    int

	MapFullBytes int // FullSizeBytes after the run (Figures 15, 19)
	DFTLBytes    int // page-level table for the same footprint

	MeanRead  time.Duration
	ReadHist  *metrics.Histogram
	WriteHist *metrics.Histogram
	WAF       float64
	Stats     ssd.Stats

	// LeaFTL-only structure statistics.
	SegStats    core.Stats
	CRBSizes    []int
	LevelCounts []int
	SegLengths  []int
	LookupHist  map[int]uint64
	LookupAvg   float64
}

// simConfig builds the device config for a run-key config name.
func (s *Suite) simConfig(name string) ssd.Config {
	cfg := ssd.SimulatorConfig()
	cfg.Flash.BlocksPerChan = s.Scale.BlocksPerChan
	cfg.Flash.OOBSize = 256 // allows gamma up to 31 (§3.5: OOBs are 128–256B)
	cfg.BufferPages = s.Scale.BufferPages
	cfg = withPool(cfg, s.Scale.AvailBytes)
	switch {
	case name == "sim":
	case name == "sim-capped":
		cfg.Mode = ssd.MappingCapped
	case name == "proto":
		// Prototype (§3.9): 16KB pages, a quarter of the blocks (similar
		// page count per DRAM byte), half the mapping+cache pool so the
		// smaller page-level table still exceeds it.
		cfg.Flash = flash.PrototypeDefaults()
		cfg.Flash.OOBSize = 256
		cfg.Flash.BlocksPerChan = max(s.Scale.BlocksPerChan/4, 8)
		cfg.BufferPages = max(s.Scale.BufferPages/4, cfg.Flash.PagesPerBlock)
		cfg = withPool(cfg, s.Scale.AvailBytes/2)
	case name == "nosort":
		cfg.SortBuffer = false
	case strings.HasPrefix(name, "avail:"):
		// DRAM sensitivity (Figure 22a): vary the mapping+cache pool.
		var kb int64
		fmt.Sscanf(name, "avail:%d", &kb)
		cfg = withPool(cfg, kb<<10)
	case strings.HasPrefix(name, "page:"):
		var kb int
		fmt.Sscanf(name, "page:%d", &kb)
		cfg.Flash.PageSize = kb << 10
		// Fixed total page count as in §4.4 ("we fix the number of flash
		// pages, and vary the flash page size"); buffer page count fixed
		// so its byte size scales with the page size.
		cfg = withPool(cfg, s.Scale.AvailBytes)
	default:
		panic("experiments: unknown config " + name)
	}
	return cfg
}

// withPool returns cfg with a mapping+cache pool of pool bytes: its
// DRAM is the write buffer plus the pool.
func withPool(cfg ssd.Config, pool int64) ssd.Config {
	cfg.DRAMBytes = cfg.BufferBytes() + pool
	return cfg
}

// budgeted returns cfg with its mapping+cache pool cut to a budget: a
// fraction of the page-level map (dftl.EntryBytes per LPA) of cfg's
// logical space, the same bytes for every scheme. Budget 0 keeps cfg's
// pool; a budget larger than that pool is an error, so no scheme gets
// more DRAM than the device has.
func budgeted(cfg ssd.Config, budget float64) (ssd.Config, error) {
	if budget == 0 {
		return cfg, nil
	}
	pool := max(1, int64(budget*float64(cfg.LogicalPages()*dftl.EntryBytes)))
	if avail := cfg.DRAMBytes - cfg.BufferBytes(); pool > avail {
		return cfg, fmt.Errorf("budget %g is %d B, more than the %d B mapping+cache pool", budget, pool, avail)
	}
	return withPool(cfg, pool), nil
}

// schemePresets builds every scheme the harness runs, keyed by the
// benchmark's names: full is LeaFTL built WithExactBitmap (the
// benchmark's scheme), which learns at γ = 0 whatever γ it is given, so
// it is paper at γ = 0 plus GC relearning; paper is the learned table
// alone at the given γ; dftl and sftl are the baselines, whose budgets
// the device sets. Both LeaFTL presets persist their groups through the
// metadata journal. A LeaFTL preset applies opts before its own options.
var schemePresets = map[string]func(gamma, pageSize int, opts []leaftl.Option) ftl.Scheme{
	"full": func(gamma, pageSize int, opts []leaftl.Option) ftl.Scheme {
		return leaftl.New(gamma, pageSize, append(opts, leaftl.WithExactBitmap())...)
	},
	"paper": func(gamma, pageSize int, opts []leaftl.Option) ftl.Scheme {
		return leaftl.New(gamma, pageSize, opts...)
	},
	"dftl": func(_, pageSize int, _ []leaftl.Option) ftl.Scheme { return dftl.New(pageSize, 0) },
	"sftl": func(_, pageSize int, _ []leaftl.Option) ftl.Scheme { return sftl.New(pageSize, 0) },
}

// checkSchemes rejects a name schemePresets does not carry.
func checkSchemes(names []string) error {
	for _, name := range names {
		if _, ok := schemePresets[name]; !ok {
			return fmt.Errorf("unknown scheme %q (want full, paper, dftl or sftl)", name)
		}
	}
	return nil
}

// newScheme builds the named preset for cfg. LeaFTL compacts every
// ~64 flushed blocks at quick scale, which keeps the paper's "periodic"
// behaviour observable on short traces; opts come after that and may
// override it.
func (s *Suite) newScheme(name string, gamma int, cfg ssd.Config, opts ...leaftl.Option) ftl.Scheme {
	compactEvery := uint64(max(s.Scale.Requests/8, 5_000))
	all := append([]leaftl.Option{leaftl.WithCompactEvery(compactEvery)}, opts...)
	return schemePresets[name](gamma, cfg.Flash.PageSize, all)
}

// Run executes (or returns the memoized) simulation for the key.
func (s *Suite) Run(cfgName string, p workload.Profile, scheme string, gamma int) (*RunOut, error) {
	key := runKey{cfg: cfgName, workload: p.Name, scheme: scheme, gamma: gamma}
	if out, ok := s.runs[key]; ok {
		return out, nil
	}
	cfg := s.simConfig(cfgName)
	sch := s.newScheme(scheme, gamma, cfg)
	dev, err := ssd.New(cfg, sch)
	if err != nil {
		return nil, fmt.Errorf("run %v: %w", key, err)
	}

	// Warmup (§4.1): fill the workload's footprint sequentially so reads
	// hit mapped pages and the drive has aged into steady state, then
	// replay a slice of the trace to populate caches, then reset metrics.
	logical := dev.LogicalPages()
	fp := p.Footprint(logical)
	if err := warmPages(dev, fp); err != nil {
		return nil, fmt.Errorf("run %v: warmup: %w", key, err)
	}
	reqs := p.Generate(logical, s.Scale.Requests, s.Seed)
	warm := len(reqs) / 5
	if err := trace.Replay(dev, reqs[:warm]); err != nil {
		return nil, fmt.Errorf("run %v: warmup replay: %w", key, err)
	}
	dev.ResetMetrics()

	if err := trace.Replay(dev, reqs[warm:]); err != nil {
		return nil, fmt.Errorf("run %v: %w", key, err)
	}
	if err := dev.Flush(); err != nil {
		return nil, fmt.Errorf("run %v: flush: %w", key, err)
	}
	if err := dev.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("run %v: %w", key, err)
	}

	out := &RunOut{
		Workload:     p.Name,
		Scheme:       scheme,
		Gamma:        gamma,
		MapFullBytes: dev.Scheme().FullSizeBytes(),
		DFTLBytes:    fp * dftl.EntryBytes,
		MeanRead:     dev.ReadLatency().MeanDuration(),
		ReadHist:     dev.ReadLatency(),
		WriteHist:    dev.WriteLatency(),
		WAF:          dev.WAF(),
		Stats:        dev.Stats(),
	}
	if ls, ok := sch.(*leaftl.Scheme); ok {
		tab := ls.Table()
		out.SegStats = tab.Stats()
		out.CRBSizes = tab.CRBSizes()
		out.LevelCounts = tab.LevelCounts()
		out.SegLengths = tab.SegmentLengths()
		out.LookupAvg, out.LookupHist = ls.LookupLevels()
	}
	s.runs[key] = out
	return out, nil
}

// traceWorkloads returns the simulator workloads (Figures 15/16/25 rows).
func traceWorkloads() []workload.Profile { return workload.Catalog() }

// appWorkloads returns the prototype workloads (Figures 17/18 rows).
func appWorkloads() []workload.Profile { return workload.AppCatalog() }

// allWorkloads concatenates both sets (Figures 19/21/24/25 use both).
func allWorkloads() []workload.Profile {
	return append(traceWorkloads(), appWorkloads()...)
}

// cfgFor returns the config name a workload class runs on.
func cfgFor(p workload.Profile) string {
	if p.Class == "app" {
		return "proto"
	}
	return "sim"
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f1x(v float64) string { return fmt.Sprintf("%.1fx", v) }

func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

// geoMean returns the geometric mean of vs.
func geoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
