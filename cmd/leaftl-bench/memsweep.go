package main

import (
	"encoding/json"
	"fmt"
	"os"

	"leaftl/internal/experiments"
)

// memSweepJSON is the machine-readable form of one mapping-DRAM budget
// sweep (scripts/memsweep.sh stitches it into BENCH_PR<N>.json).
type memSweepJSON struct {
	Mode    string       `json:"mode"`
	Scale   string       `json:"scale"`
	Queues  int          `json:"queues"`
	Speedup float64      `json:"speedup"`
	Gamma   int          `json:"gamma"`
	Runs    []memRunJSON `json:"runs"`
}

// memRunJSON is one scheme × budget × workload cell.
type memRunJSON struct {
	Workload      string  `json:"workload"`
	Scheme        string  `json:"scheme"`
	BudgetBytes   int     `json:"budget_bytes"`
	ResidentBytes int     `json:"resident_bytes"`
	FullBytes     int     `json:"full_bytes"`
	MetaReads     uint64  `json:"meta_reads"`
	MetaWrites    uint64  `json:"meta_writes"`
	MissPerOp     float64 `json:"miss_per_op"`
	DoubleReads   uint64  `json:"double_reads"`
	DoubleReadOp  float64 `json:"double_read_per_op"`
	MetaWAF       float64 `json:"meta_waf"`
	WAF           float64 `json:"waf"`
	Faults        uint64  `json:"group_faults"`
	Evictions     uint64  `json:"group_evictions"`
	P50us         float64 `json:"p50_us"`
	P99us         float64 `json:"p99_us"`
	P999us        float64 `json:"p999_us"`
	MeanUs        float64 `json:"mean_us"`
	IOPS          float64 `json:"iops"`
	Journal       bool    `json:"journal"`
	JournalApps   uint64  `json:"journal_appends"`
	JournalFolds  uint64  `json:"journal_folds"`
	ChainLen      int     `json:"chain_len"`
}

// runMemSweep is the leaftl-bench memory-sweep mode: cap each scheme's
// mapping DRAM at a sweep of budgets and report how throughput, tail
// latency, mapping-miss traffic and meta-WAF respond.
func runMemSweep(scale experiments.Scale, budgets, schemes, workloads string, qd int, speedup float64, gamma int, seed int64, journal, markdown bool, jsonPath string) error {
	budgetList, err := parseFloatList(budgets)
	if err != nil {
		return err
	}
	if qd < 1 {
		qd = 4
	}
	if speedup <= 0 {
		speedup = 1
	}
	spec := experiments.MemorySweepSpec{
		Budgets:   budgetList,
		Schemes:   parseList(schemes),
		Workloads: parseList(workloads),
		Queues:    qd,
		Speedup:   speedup,
		Gamma:     gamma,
		Journal:   journal,
	}
	s := experiments.NewSuite(scale, seed)
	runs, table, err := s.MemorySweep(spec)
	if err != nil {
		return err
	}
	if markdown {
		fmt.Println(table.Markdown())
	} else {
		fmt.Println(table.String())
	}

	if jsonPath == "" {
		return nil
	}
	out := memSweepJSON{
		Mode: "memsweep", Scale: scale.Name,
		Queues: spec.Queues, Speedup: spec.Speedup, Gamma: gamma,
	}
	for _, r := range runs {
		sum := r.Result.Latency.Summary()
		out.Runs = append(out.Runs, memRunJSON{
			Workload: r.Workload, Scheme: r.Scheme,
			BudgetBytes: r.BudgetBytes, ResidentBytes: r.ResidentBytes, FullBytes: r.FullBytes,
			MetaReads: r.Stats.MetaReads, MetaWrites: r.Stats.MetaWrites,
			MissPerOp:   r.Stats.MetaReadRatio(),
			DoubleReads: r.Stats.DoubleReads, DoubleReadOp: r.Stats.DoubleReadRatio(),
			MetaWAF: r.Stats.MetaWAF(), WAF: r.WAF,
			Faults: r.Faults, Evictions: r.Evictions,
			P50us: usF(sum.P50), P99us: usF(sum.P99), P999us: usF(sum.P999),
			MeanUs: usF(sum.Mean), IOPS: r.Result.IOPS(),
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
