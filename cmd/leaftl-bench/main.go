// Command leaftl-bench regenerates the paper's evaluation tables and
// figures on the simulated SSD (deliverable d). By default it runs at
// quick scale; -full uses a larger scaled device and -micro the fastest
// CI-smoke scale.
// Several replay modes skip the figures: -openloop replays a trace file
// (native, MSR CSV, or FIU format) at its recorded arrival times
// against all three schemes, reporting p50/p95/p99/p999 latency,
// -memsweep caps every scheme's mapping DRAM at a sweep of budgets
// (-mapping-budget) so LeaFTL's demand-paged learned table competes
// against DFTL/SFTL under the same memory pressure, -torture runs the
// seeded crash-torture matrix (kill-recover-verify across mapping
// budgets × exactness bitmap) plus an aged-device fault-injection sweep
// over -fault-rber, and -diesweep replays a timed workload across flash
// die geometries through -workers issue-time host queues.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"leaftl/internal/experiments"
	"leaftl/internal/profile"
)

func main() {
	full := flag.Bool("full", false, "run at full (slower) scale")
	only := flag.String("only", "", "comma-separated figure IDs to run (e.g. fig15,fig16)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	markdown := flag.Bool("markdown", false, "emit Markdown tables instead of ASCII")
	gamma := flag.Int("gamma", 0, "LeaFTL error bound for the replay and sweep modes")
	jsonOut := flag.String("json", "", "replay and sweep modes: write JSON results to this file (- for stdout)")
	openloop := flag.Bool("openloop", false, "open-loop replay mode: replay -trace at recorded arrival times against LeaFTL/DFTL/SFTL (skips figures)")
	tracePath := flag.String("trace", "traces/msr-sample.csv", "open-loop replay mode: trace file to replay")
	traceFormat := flag.String("trace-format", "auto", "open-loop replay mode: trace format (auto, native, msr, fiu)")
	qd := flag.Int("qd", 4, "open-loop replay mode: host submission queue count")
	speedup := flag.Float64("speedup", 1, "open-loop replay mode: divide recorded inter-arrival times by this factor")
	micro := flag.Bool("micro", false, "run at micro (fastest, CI smoke) scale")
	memSweep := flag.Bool("memsweep", false, "memory sweep mode: cap mapping DRAM at -mapping-budget and compare schemes under demand paging (skips figures)")
	mappingBudget := flag.String("mapping-budget", "", "-memsweep mode: comma-separated budgets; values ≤ 8 are fractions of each scheme's full mapping size, larger values absolute bytes (default: 0.125,0.25,0.5,1)")
	memSchemes := flag.String("mem-schemes", "", "-memsweep mode: comma-separated schemes (default: LeaFTL,DFTL,SFTL)")
	memWorkloads := flag.String("mem-workloads", "", "-memsweep mode: comma-separated timed workloads (default: zipf-hot,mixed-rw)")
	journal := flag.Bool("journal", true, "openloop/memsweep modes: persist LeaFTL's dirty mapping groups as delta records in dedicated translation blocks (-journal=false restores the full-image writeback path)")
	torture := flag.Bool("torture", false, "reliability mode: seeded crash-torture matrix + fault-injection sweep (skips figures)")
	crashPoints := flag.Int("crash-points", 0, "-torture mode: crashes injected per matrix cell (0 = default 5)")
	faultRBER := flag.String("fault-rber", "", "-torture mode: comma-separated base RBERs for the fault sweep (default: 1e-7,1e-5,5e-5,1e-4,5e-4)")
	faultSeed := flag.Int64("fault-seed", 0, "-torture mode: fault-model seed (0 = use -seed)")
	scrubThreshold := flag.Int("scrub-threshold", 0, "-torture mode: read-disturb scrub threshold in block reads (0 = default 5000)")
	workers := flag.String("workers", "", "-diesweep mode: host queue count of the replay (default 4)")
	sweepWorkload := flag.String("sweep-workload", "zipf-hot", "-diesweep mode: timed workload to replay")
	dieSweep := flag.Bool("diesweep", false, "die sweep mode: replay a timed workload across -dies × -planes flash geometries, with a budgeted arm measuring map-op/data-op overlap (skips figures)")
	dieCounts := flag.String("dies", "", "-diesweep mode: comma-separated dies-per-channel counts (default 1,2,4)")
	planes := flag.Int("planes", 0, "-diesweep mode: planes per die, applied to every row (default 2)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	// Profiles cover whichever mode runs; a run that exits on an error
	// leaves them unwritten.
	stopProfile, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "leaftl-bench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: %v\n", err)
			os.Exit(1)
		}
	}()

	scaleOf := func() experiments.Scale {
		switch {
		case *full:
			return experiments.FullScale()
		case *micro:
			return experiments.MicroScale()
		default:
			return experiments.QuickScale()
		}
	}

	if *dieSweep {
		// The sweep saturates the one-die baseline by default (4x); an
		// explicit -speedup still wins.
		sp := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "speedup" {
				sp = *speedup
			}
		})
		if err := runDieSweep(scaleOf(), *dieCounts, *planes, *workers, *sweepWorkload, *gamma, sp, *seed, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: diesweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *torture {
		if err := runTorture(scaleOf(), *crashPoints, *faultRBER, *faultSeed, *scrubThreshold, *gamma, *seed, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: torture: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *memSweep {
		if err := runMemSweep(scaleOf(), *mappingBudget, *memSchemes, *memWorkloads, *qd, *speedup, *gamma, *seed, *journal, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: memsweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *openloop {
		if err := runOpenLoop(*tracePath, *traceFormat, *qd, *speedup, *gamma, *seed, *markdown, *jsonOut, *journal); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: openloop: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := scaleOf()
	s := experiments.NewSuite(scale, *seed)

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	selected := func(ids ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, id := range ids {
			if want[id] {
				return true
			}
		}
		return false
	}

	emit := func(t experiments.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: %s: %v\n", t.ID, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}

	start := time.Now()
	if selected("fig5") {
		emit(s.Fig5SegmentLengths())
	}
	if selected("fig10") {
		emit(s.Fig10CRBSizes())
	}
	if selected("fig12") {
		emit(s.Fig12LevelCounts())
	}
	if selected("fig15") {
		emit(s.Fig15MemoryReduction())
	}
	if selected("fig16", "fig16a", "fig16b") {
		a, b, err := s.Fig16Performance()
		emit(a, err)
		emit(b, nil)
	}
	if selected("fig17") {
		emit(s.Fig17RealSSD())
	}
	if selected("fig18") {
		emit(s.Fig18LatencyCDF())
	}
	if selected("fig19") {
		emit(s.Fig19GammaMemory())
	}
	if selected("fig20") {
		emit(s.Fig20SegmentMix())
	}
	if selected("fig21") {
		emit(s.Fig21GammaPerf())
	}
	if selected("fig22", "fig22a", "fig22b") {
		a, b, err := s.Fig22Sensitivity()
		emit(a, err)
		emit(b, nil)
	}
	if selected("fig23", "fig23a", "fig23b") {
		a, b, err := s.Fig23LookupOverhead()
		emit(a, err)
		emit(b, nil)
	}
	if selected("fig24") {
		emit(s.Fig24Misprediction())
	}
	if selected("fig25") {
		emit(s.Fig25WAF())
	}
	if selected("table3") {
		emit(s.Table3Microbench())
	}
	if selected("ablation-sort") {
		emit(s.AblationBufferSort())
	}
	if selected("ablation-compaction") {
		emit(s.AblationCompaction())
	}
	if selected("ablation-log") {
		emit(s.AblationLogStructured())
	}
	if selected("recovery") {
		emit(s.RecoveryExperiment())
	}
	fmt.Fprintf(os.Stderr, "leaftl-bench: completed in %v (scale=%s)\n", time.Since(start).Round(time.Millisecond), scale.Name)
}

// parseList splits a comma-separated flag value.
func parseList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// parseIntList splits a comma-separated list of integers.
func parseIntList(v string) ([]int, error) {
	var out []int
	for _, s := range parseList(v) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", s, v)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloatList splits a comma-separated list of floats.
func parseFloatList(v string) ([]float64, error) {
	var out []float64
	for _, s := range parseList(v) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", s, v)
		}
		out = append(out, f)
	}
	return out, nil
}
