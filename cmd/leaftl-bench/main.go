// Command leaftl-bench regenerates the paper's evaluation tables and
// figures on the simulated SSD (deliverable d). By default it runs at
// quick scale; -full uses the larger scaled device of DESIGN.md §5 and
// -micro the fastest CI-smoke scale.
// Seven replay modes skip the figures: -parallel hammers the sharded
// translation core with concurrent host streams, -openloop replays
// a trace file (native, MSR CSV, or FIU format) at its recorded arrival
// times against all three schemes, reporting p50/p95/p99/p999 latency
// (-autotune runs LeaFTL with the adaptive per-group γ controller),
// -gccompare sweeps GC victim policies × hot/cold stream counts
// over GC-heavy workloads (-gc-policy/-gc-streams also apply a single
// policy/stream count to the open-loop mode), -memsweep caps every
// scheme's mapping DRAM at a sweep of budgets (-mapping-budget) so
// LeaFTL's demand-paged learned table competes against DFTL/SFTL under
// the same memory pressure, and -gammatune sweeps a static error-bound
// grid (-gammas) against the autotuned controller, recording which
// static points the controller dominates, and -torture runs the seeded
// crash-torture matrix (kill-recover-verify across GC policies ×
// mapping budgets × autotune) plus an aged-device fault-injection sweep
// over -fault-rber, and -coresweep replays a timed workload through the
// real multi-queue front end at each -workers count, reporting the
// kIOPS-vs-cores curve and the cross-count state-digest determinism
// check (-workers with -openloop drives that replay through real queue
// pairs too).
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
	parallel := flag.Int("parallel", 0, "parallel replay mode: N independent host streams against the sharded translation core (skips figures)")
	shards := flag.Int("shards", 8, "shard count for the parallel replay mode")
	gamma := flag.Int("gamma", 0, "LeaFTL error bound for the parallel and open-loop replay modes")
	jsonOut := flag.String("json", "", "parallel/open-loop replay modes: write JSON results to this file (- for stdout)")
	openloop := flag.Bool("openloop", false, "open-loop replay mode: replay -trace at recorded arrival times against LeaFTL/DFTL/SFTL (skips figures)")
	tracePath := flag.String("trace", "traces/msr-sample.csv", "open-loop replay mode: trace file to replay")
	traceFormat := flag.String("trace-format", "auto", "open-loop replay mode: trace format (auto, native, msr, fiu)")
	qd := flag.Int("qd", 4, "open-loop replay mode: host submission queue count")
	speedup := flag.Float64("speedup", 1, "open-loop replay mode: divide recorded inter-arrival times by this factor")
	gcCompare := flag.Bool("gccompare", false, "GC comparison mode: sweep GC policies × streams over GC-heavy workloads (skips figures)")
	gcPolicy := flag.String("gc-policy", "", "GC victim policy (greedy, cost-benefit, fifo); comma-separated list in -gccompare mode (default: all)")
	gcStreams := flag.String("gc-streams", "", "hot/cold GC destination stream count; comma-separated list in -gccompare mode (default: 1,4)")
	gcWorkloads := flag.String("gc-workloads", "", "-gccompare mode: comma-separated timed workloads (default: zipf-hot,mixed-rw)")
	micro := flag.Bool("micro", false, "run at micro (fastest, CI smoke) scale")
	gammaTune := flag.Bool("gammatune", false, "adaptive-γ sweep mode: static γ grid (-gammas) vs the per-group autotune controller (skips figures)")
	gammas := flag.String("gammas", "0,2,4,8,16", "-gammatune mode: comma-separated static γ grid")
	bitmap := flag.Bool("bitmap", true, "-gammatune mode: add an autotune+bitmap cell per workload (predicted-exact bitmaps + GC-time relearning) and score the PR 9 gate")
	autotune := flag.Bool("autotune", false, "open-loop replay mode: run LeaFTL with the adaptive per-group γ controller")
	gammaTarget := flag.Float64("gamma-target", 0, "autotune controller's tolerated miss-per-read ratio (0 = default 0.02)")
	tuneWorkloads := flag.String("tune-workloads", "", "-gammatune mode: comma-separated workloads (zipf-hot, strided, msr-replay; default: zipf-hot,strided)")
	memSweep := flag.Bool("memsweep", false, "memory sweep mode: cap mapping DRAM at -mapping-budget and compare schemes under demand paging (skips figures)")
	mappingBudget := flag.String("mapping-budget", "", "-memsweep mode: comma-separated budgets; values ≤ 8 are fractions of each scheme's full mapping size, larger values absolute bytes (default: 0.125,0.25,0.5,1)")
	memSchemes := flag.String("mem-schemes", "", "-memsweep mode: comma-separated schemes (default: LeaFTL,DFTL,SFTL)")
	memWorkloads := flag.String("mem-workloads", "", "-memsweep mode: comma-separated timed workloads (default: zipf-hot,mixed-rw)")
	journal := flag.Bool("journal", true, "openloop/gccompare/memsweep modes: persist LeaFTL's dirty mapping groups as delta records in dedicated translation blocks (-journal=false restores the full-image writeback path)")
	torture := flag.Bool("torture", false, "reliability mode: seeded crash-torture matrix + fault-injection sweep (skips figures)")
	crashPoints := flag.Int("crash-points", 0, "-torture mode: crashes injected per matrix cell (0 = default 5)")
	faultRBER := flag.String("fault-rber", "", "-torture mode: comma-separated base RBERs for the fault sweep (default: 1e-7,1e-5,5e-5,1e-4,5e-4)")
	faultSeed := flag.Int64("fault-seed", 0, "-torture mode: fault-model seed (0 = use -seed)")
	scrubThreshold := flag.Int("scrub-threshold", 0, "-torture mode: read-disturb scrub threshold in block reads (0 = default 5000)")
	coreSweep := flag.Bool("coresweep", false, "core-count sweep mode: replay a timed workload through the real multi-queue front end at each -workers count (skips figures)")
	workers := flag.String("workers", "", "-coresweep mode: comma-separated worker/queue-pair counts (default 1,2,4,8); single value in -openloop/-torture/-diesweep modes drives replay through that many real queue pairs")
	sweepWorkload := flag.String("sweep-workload", "zipf-hot", "-coresweep/-diesweep modes: timed workload to replay")
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
		// Like -coresweep, the sweep saturates the one-die baseline by
		// default (4x); an explicit -speedup still wins.
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
	if *coreSweep {
		list := *workers
		if list == "" {
			list = "1,2,4,8"
		}
		// The sweep saturates a single worker by default (4x); an explicit
		// -speedup still wins.
		sp := 0.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "speedup" {
				sp = *speedup
			}
		})
		if err := runCoreSweep(scaleOf(), list, *sweepWorkload, *gamma, sp, *seed, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: coresweep: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *torture {
		w := 0
		if *workers != "" {
			var err error
			if w, err = strconv.Atoi(*workers); err != nil {
				fmt.Fprintf(os.Stderr, "leaftl-bench: torture: -workers %q: want a single integer\n", *workers)
				os.Exit(1)
			}
		}
		if err := runTorture(scaleOf(), *crashPoints, *faultRBER, *faultSeed, *scrubThreshold, *gamma, *seed, *markdown, *jsonOut, w); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: torture: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *gammaTune {
		if err := runGammaTune(scaleOf(), *gammas, *gamma, *gammaTarget, *tuneWorkloads, *tracePath, *bitmap, *qd, *speedup, *seed, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: gammatune: %v\n", err)
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
	if *gcCompare {
		if err := runGCCompare(scaleOf(), *gcPolicy, *gcStreams, *gcWorkloads, *qd, *speedup, *gamma, *seed, *journal, *markdown, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: gccompare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *openloop {
		w := 0
		if *workers != "" {
			var err error
			if w, err = strconv.Atoi(*workers); err != nil {
				fmt.Fprintf(os.Stderr, "leaftl-bench: openloop: -workers %q: want a single integer\n", *workers)
				os.Exit(1)
			}
		}
		if err := runOpenLoop(*tracePath, *traceFormat, *qd, *speedup, *gamma, *seed, *markdown, *jsonOut, *gcPolicy, *gcStreams, *autotune, *gammaTarget, w, *journal); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: openloop: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *parallel > 0 {
		if err := runParallel(*parallel, *shards, *gamma, *seed, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "leaftl-bench: parallel: %v\n", err)
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
