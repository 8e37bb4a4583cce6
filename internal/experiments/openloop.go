package experiments

import (
	"fmt"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
)

// journalStatsOf snapshots a scheme's mapping-delta journal counters,
// reporting whether the journal is actually on.
func journalStatsOf(sch ftl.Scheme) (bool, ftl.JournalStats) {
	if j, ok := sch.(ftl.Journaled); ok && j.JournalEnabled() {
		return true, j.JournalStats()
	}
	return false, ftl.JournalStats{}
}

// OpenLoopSpec parameterizes an open-loop trace replay comparison.
type OpenLoopSpec struct {
	// Queues is the host submission queue count (trace.OpenLoopConfig).
	Queues int
	// Speedup divides recorded inter-arrival times.
	Speedup float64
	// Gamma is LeaFTL's error bound for the run.
	Gamma int
	// Interarrival replaces recorded timestamps with uniform spacing
	// (how untimed traces replay open-loop); zero uses the trace's own
	// arrivals.
	Interarrival time.Duration
	// Journal runs LeaFTL with the mapping-delta journal (no effect on
	// the baselines).
	Journal bool
}

// OpenLoopRun is one scheme's open-loop replay outcome.
type OpenLoopRun struct {
	// Scheme names the translation scheme.
	Scheme string
	// Result holds the latency distributions and makespan.
	Result *trace.OpenLoopResult
	// MapBytes is the scheme's full mapping-structure size afterward;
	// ResidentBytes is the DRAM-resident share.
	MapBytes      int
	ResidentBytes int
	// Stats holds the device counters, including the MetaReads
	// (mapping-miss loads) and MetaWrites (dirty evictions/persistence)
	// that make miss-ratio curves plottable.
	Stats ssd.Stats
	// Journal marks a run with the mapping-delta journal on;
	// JournalStats holds its counters (zero-valued otherwise).
	Journal      bool
	JournalStats ftl.JournalStats
}

// OpenLoopCompare replays one trace open-loop against three identical
// devices — LeaFTL, DFTL and SFTL — and returns per-scheme runs plus a
// rendered tail-latency table. The trace is folded into the device's
// logical space with trace.FitTo, and each device is warmed by
// sequentially writing the trace's footprint so reads hit mapped pages
// (§4.1's warmup protocol).
func (s *Suite) OpenLoopCompare(reqs []trace.Request, spec OpenLoopSpec) ([]OpenLoopRun, Table, error) {
	if len(reqs) == 0 {
		return nil, Table{}, fmt.Errorf("openloop: empty trace")
	}
	if spec.Speedup <= 0 {
		spec.Speedup = 1
	}
	if spec.Queues < 1 {
		spec.Queues = 1
	}
	// Capacity is identical across the three schemes, so the trace folds
	// once.
	fitted, err := trace.FitTo(reqs, s.simConfig("sim").LogicalPages())
	if err != nil {
		return nil, Table{}, fmt.Errorf("openloop: %w", err)
	}

	var runs []OpenLoopRun
	for _, scheme := range []string{"LeaFTL", "DFTL", "SFTL"} {
		cfg := s.simConfig("sim")
		var opts []leaftl.Option
		if scheme == "LeaFTL" && spec.Journal {
			opts = append(opts, leaftl.WithJournal())
		}
		sch := s.newScheme(scheme, spec.Gamma, cfg, opts...)
		dev, err := ssd.New(cfg, sch)
		if err != nil {
			return nil, Table{}, fmt.Errorf("openloop %s: %w", scheme, err)
		}
		if err := warmFootprint(dev, fitted); err != nil {
			return nil, Table{}, fmt.Errorf("openloop %s: warmup: %w", scheme, err)
		}
		res, err := trace.ReplayOpenLoop(dev, fitted, trace.OpenLoopConfig{
			Queues: spec.Queues, Speedup: spec.Speedup, Interarrival: spec.Interarrival,
		})
		if err != nil {
			return nil, Table{}, fmt.Errorf("openloop %s: %w", scheme, err)
		}
		run := OpenLoopRun{
			Scheme: sch.Name(), Result: res,
			MapBytes: sch.FullSizeBytes(), ResidentBytes: sch.MemoryBytes(),
			Stats: dev.Stats(),
		}
		run.Journal, run.JournalStats = journalStatsOf(sch)
		runs = append(runs, run)
	}

	t := Table{
		ID: "openloop",
		Title: fmt.Sprintf("open-loop replay: %d requests, %d queue(s), %.2gx speed, gamma=%d",
			len(reqs), spec.Queues, spec.Speedup, spec.Gamma),
		Header: []string{"scheme", "p50", "p95", "p99", "p999", "mean", "max", "kIOPS", "mapping"},
		Notes:  "latency = queue wait + device service; identical requests and arrivals per scheme",
	}
	for _, r := range runs {
		sum := r.Result.Latency.Summary()
		t.Rows = append(t.Rows, []string{
			r.Scheme, us(sum.P50), us(sum.P95), us(sum.P99), us(sum.P999), us(sum.Mean), us(sum.Peak),
			fmt.Sprintf("%.1f", r.Result.IOPS()/1e3),
			metrics.FormatBytes(int64(r.MapBytes)),
		})
	}
	return runs, t, nil
}

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
// §4.1 warmup fill shared by Run and OpenLoopCompare.
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
