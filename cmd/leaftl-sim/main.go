// Command leaftl-sim replays a block I/O trace (native, MSR CSV, or
// FIU format — auto-detected for files, see docs/TRACES.md) against
// the simulated SSD with a chosen translation scheme, and reports
// latency, memory, and flash statistics.
//
// Usage:
//
//	tracegen -workload TPCC -n 200000 | leaftl-sim -scheme leaftl -gamma 4
//	leaftl-sim -scheme dftl -trace run.trace
//	leaftl-sim -scheme leaftl -gamma 4 -trace hm_0.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/profile"
	"leaftl/internal/sftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
)

func main() {
	schemeName := flag.String("scheme", "leaftl", "translation scheme: leaftl, dftl, sftl")
	gamma := flag.Int("gamma", 0, "LeaFTL error bound (pages)")
	traceFile := flag.String("trace", "-", "trace file ('-' = stdin)")
	formatName := flag.String("format", "auto", "trace format: auto, native, msr, fiu (stdin defaults to native)")
	blocksPerChan := flag.Int("blocks", 48, "flash blocks per channel")
	dramMB := flag.Int64("dram", 16, "controller DRAM (MiB)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	stopProfile, err := prof.Start()
	if err == nil {
		err = run(*schemeName, *gamma, *traceFile, *formatName, *blocksPerChan, *dramMB)
		if perr := stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "leaftl-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(schemeName string, gamma int, traceFile, formatName string, blocksPerChan int, dramMB int64) error {
	var reqs []trace.Request
	var err error
	switch {
	case traceFile != "-" && (formatName == "" || formatName == "auto"):
		reqs, _, err = trace.Open(traceFile, trace.Options{})
	default:
		var in io.Reader = os.Stdin
		if traceFile != "-" {
			f, ferr := os.Open(traceFile)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			in = f
		}
		format := trace.FormatNative
		if formatName != "" && formatName != "auto" {
			if format, err = trace.FormatByName(formatName); err != nil {
				return err
			}
		}
		reqs, err = trace.Decode(in, format, trace.Options{})
	}
	if err != nil {
		return err
	}
	if len(reqs) == 0 {
		return fmt.Errorf("empty trace")
	}

	cfg := ssd.SimulatorConfig()
	cfg.Flash.BlocksPerChan = blocksPerChan
	cfg.Flash.OOBSize = 256
	cfg.DRAMBytes = dramMB << 20
	cfg.BufferPages = 2 * cfg.Flash.PagesPerBlock

	var scheme ftl.Scheme
	switch strings.ToLower(schemeName) {
	case "leaftl":
		scheme = leaftl.New(gamma, cfg.Flash.PageSize)
	case "dftl":
		scheme = dftl.New(cfg.Flash.PageSize, 0)
	case "sftl":
		scheme = sftl.New(cfg.Flash.PageSize, 0)
	default:
		return fmt.Errorf("unknown scheme %q", schemeName)
	}

	dev, err := ssd.New(cfg, scheme)
	if err != nil {
		return err
	}
	// Traces captured on larger drives fold into this device's space.
	if reqs, err = trace.FitTo(reqs, dev.LogicalPages()); err != nil {
		return err
	}
	if err := trace.Replay(dev, reqs); err != nil {
		return err
	}
	if err := dev.Flush(); err != nil {
		return err
	}

	st := dev.Stats()
	fs := dev.FlashStats()
	fmt.Printf("scheme         %s (gamma=%d)\n", scheme.Name(), gamma)
	fmt.Printf("requests       %d (%d reads, %d writes)\n",
		st.HostReadReqs+st.HostWriteReqs, st.HostReadReqs, st.HostWriteReqs)
	fmt.Printf("mean read      %v   p99 %v\n",
		dev.ReadLatency().MeanDuration(), dev.ReadLatency().PercentileDuration(99))
	fmt.Printf("mean write     %v\n", dev.WriteLatency().MeanDuration())
	fmt.Printf("cache hits     %.1f%% (buffer %d, cache %d, flash %d)\n",
		100*st.CacheHitRatio(), st.BufferHits, st.CacheHits, st.CacheMisses)
	fmt.Printf("mapping table  %s (full %s)\n",
		metrics.FormatBytes(int64(scheme.MemoryBytes())), metrics.FormatBytes(int64(scheme.FullSizeBytes())))
	fmt.Printf("mispredictions %d (%.2f%% of reads), OOB fallbacks %d\n",
		st.Mispredictions, 100*st.MispredictionRatio(), st.OOBFallbacks)
	fmt.Printf("flash ops      %d reads, %d writes, %d erases, WAF %.2f\n",
		fs.PageReads, fs.PageWrites, fs.BlockErases, dev.WAF())
	fmt.Printf("GC             %d runs, %d pages moved, %d erases; wear moves %d\n",
		st.GCRuns, st.GCPagesMoved, st.GCErases, st.WearMoves)
	if ls, ok := scheme.(*leaftl.Scheme); ok {
		stt := ls.Table().Stats()
		avg, _ := ls.LookupLevels()
		fmt.Printf("learned table  %d segments (%d accurate, %d approximate), %d groups, avg %.2f levels/lookup\n",
			stt.Segments, stt.Accurate, stt.Approximate, stt.Groups, avg)
	}
	return nil
}
