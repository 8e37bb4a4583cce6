package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"leaftl/internal/experiments"
	"leaftl/internal/trace"
)

// openLoopJSON is the machine-readable form of one open-loop run,
// mirroring the rendered table for scripts/bench trend tracking.
type openLoopJSON struct {
	Mode    string       `json:"mode"`
	Trace   string       `json:"trace"`
	Format  string       `json:"format"`
	Queues  int          `json:"queues"`
	Speedup float64      `json:"speedup"`
	Gamma   int          `json:"gamma"`
	Schemes []schemeJSON `json:"schemes"`
}

// schemeJSON is one scheme's row in the open-loop JSON output.
type schemeJSON struct {
	Scheme        string  `json:"scheme"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`
	P999us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`
	IOPS          float64 `json:"iops"`
	MapBytes      int     `json:"mapping_bytes"`
	ResidentBytes int     `json:"resident_bytes"`
	MetaReads     uint64  `json:"meta_reads"`
	MetaWrites    uint64  `json:"meta_writes"`
	MissPerOp     float64 `json:"miss_per_op"`
	DoubleReads   uint64  `json:"double_reads"`
	DoubleReadOp  float64 `json:"double_read_per_op"`
	MetaWAF       float64 `json:"meta_waf"`
	Journal       bool    `json:"journal"`
	JournalApps   uint64  `json:"journal_appends"`
	JournalFolds  uint64  `json:"journal_folds"`
	ChainLen      int     `json:"chain_len"`
}

// runOpenLoop is the leaftl-bench open-loop replay mode: ingest a trace
// in any supported format, replay it at recorded arrival times against
// LeaFTL/DFTL/SFTL on identical devices, and report tail latency.
func runOpenLoop(path, formatName string, qd int, speedup float64, gamma int, seed int64, markdown bool, jsonPath string, journal bool) error {
	var (
		reqs   []trace.Request
		format trace.Format
		err    error
	)
	if formatName == "" || formatName == "auto" {
		reqs, format, err = trace.Open(path, trace.Options{})
	} else {
		if format, err = trace.FormatByName(formatName); err != nil {
			return err
		}
		var f *os.File
		if f, err = os.Open(path); err != nil {
			return err
		}
		reqs, err = trace.Decode(f, format, trace.Options{})
		f.Close()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "leaftl-bench: %s: %d requests (%s format), recorded span %v\n",
		path, len(reqs), format, trace.Span(reqs).Round(time.Millisecond))

	spec := experiments.OpenLoopSpec{
		Queues: qd, Speedup: speedup, Gamma: gamma,
		Journal: journal,
	}
	if !trace.Timed(reqs) {
		// Untimed traces replay at a uniform 50k IOPS arrival rate.
		spec.Interarrival = 20 * time.Microsecond
		fmt.Fprintln(os.Stderr, "leaftl-bench: trace is untimed; spacing arrivals 20µs apart")
	}
	s := experiments.NewSuite(experiments.QuickScale(), seed)
	runs, table, err := s.OpenLoopCompare(reqs, spec)
	if err != nil {
		return err
	}
	if markdown {
		fmt.Println(table.Markdown())
	} else {
		fmt.Println(table.String())
	}

	if jsonPath != "" {
		out := openLoopJSON{
			Mode: "openloop-replay", Trace: path, Format: format.String(),
			Queues: spec.Queues, Speedup: spec.Speedup, Gamma: gamma,
		}
		for _, r := range runs {
			sum := r.Result.Latency.Summary()
			out.Schemes = append(out.Schemes, schemeJSON{
				Scheme: r.Scheme,
				P50us:  usF(sum.P50), P95us: usF(sum.P95), P99us: usF(sum.P99), P999us: usF(sum.P999),
				MeanUs: usF(sum.Mean), IOPS: r.Result.IOPS(),
				MapBytes: r.MapBytes, ResidentBytes: r.ResidentBytes,
				MetaReads: r.Stats.MetaReads, MetaWrites: r.Stats.MetaWrites,
				MissPerOp:   r.Stats.MetaReadRatio(),
				DoubleReads: r.Stats.DoubleReads, DoubleReadOp: r.Stats.DoubleReadRatio(),
				MetaWAF:     r.Stats.MetaWAF(),
				Journal:     r.Journal,
				JournalApps: r.JournalStats.Appends, JournalFolds: r.JournalStats.Folds,
				ChainLen: r.JournalStats.MaxChain,
			})
		}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		if jsonPath == "-" {
			_, err = os.Stdout.Write(enc)
			return err
		}
		return os.WriteFile(jsonPath, enc, 0o644)
	}
	return nil
}

// usF converts a duration to float microseconds for JSON.
func usF(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perOpNs divides a wall duration across n operations, reporting 0 for
// an empty run — a NaN here would make encoding/json reject the whole
// report.
func perOpNs(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
