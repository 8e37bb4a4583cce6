// Command tracegen emits a synthetic block I/O trace for one of the
// paper's workload profiles or the open-loop timed generators
// (zipf-hot, mixed-rw), in any supported wire format. The output
// replays with leaftl-bench -cells -workloads FILE (or /dev/stdin
// through a pipe) or trace.Open.
//
// Usage:
//
//	tracegen -list
//	tracegen -workload MSR-hm -pages 1048576 -n 100000 -seed 1 > hm.trace
//	tracegen -workload zipf-hot -format msr -n 50000 > zipf.csv
//	tracegen -workload TPCC -iops 30000 -burst 4 -format native > tpcc.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available workload profiles and generators")
	name := flag.String("workload", "MSR-hm", "workload profile or timed generator name")
	pages := flag.Int("pages", 1<<20, "logical device size in pages")
	n := flag.Int("n", 100_000, "number of requests")
	seed := flag.Int64("seed", 1, "generator seed")
	formatName := flag.String("format", "native", "output format: native, msr, fiu")
	iops := flag.Float64("iops", 0, "stamp arrival timestamps at this mean rate (profiles only; timed generators set their own)")
	burst := flag.Float64("burst", 1, "arrival burst factor when -iops is set (1 = steady Poisson)")
	flag.Parse()

	if *list {
		fmt.Println("# trace workloads (simulator, §4.1):")
		for _, p := range workload.Catalog() {
			fmt.Printf("  %-10s reads=%.0f%% seq=%.0f%% stride=%.0f%% footprint=%.0f%%\n",
				p.Name, 100*p.ReadFrac, 100*p.SeqFrac, 100*p.StrideFrac, 100*p.FootprintFrac)
		}
		fmt.Println("# app workloads (prototype, Table 2):")
		for _, p := range workload.AppCatalog() {
			fmt.Printf("  %-10s reads=%.0f%% seq=%.0f%% stride=%.0f%% footprint=%.0f%%\n",
				p.Name, 100*p.ReadFrac, 100*p.SeqFrac, 100*p.StrideFrac, 100*p.FootprintFrac)
		}
		fmt.Println("# timed generators (open-loop replay):")
		timed := workload.TimedCatalog()
		names := make([]string, 0, len(timed))
		for n := range timed {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	if err := run(*name, *pages, *n, *seed, *formatName, *iops, *burst); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, pages, n int, seed int64, formatName string, iops, burst float64) error {
	format, err := trace.FormatByName(formatName)
	if err != nil {
		return err
	}

	var reqs []trace.Request
	if gen, ok := workload.TimedCatalog()[name]; ok {
		reqs = gen.Generate(pages, n, seed)
	} else if p, ok := workload.ByName(name); ok {
		reqs = p.Generate(pages, n, seed)
		if iops > 0 {
			workload.ArrivalModel{IOPS: iops, BurstFactor: burst}.Stamp(reqs, seed)
		}
	} else {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}

	// Native output keeps the '#' provenance header; the other formats
	// have no comment syntax.
	if format == trace.FormatNative {
		fmt.Printf("# workload=%s pages=%d n=%d seed=%d\n", name, pages, n, seed)
		if !trace.Timed(reqs) {
			return trace.Write(os.Stdout, reqs)
		}
	}
	return trace.Encode(os.Stdout, format, reqs, trace.Options{})
}
