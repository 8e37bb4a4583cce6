// Tracereplay: run one of the paper's workloads (MSR-hm by default)
// against all three translation schemes on identical devices and compare
// memory and latency — a miniature of the paper's Figures 15 and 16.
//
// With -openloop, the workload is a timed generator (zipf-hot by
// default) replayed at its recorded arrival times across -qd issue-time
// host queues, and the comparison reports tail latency (p50/p95/p99/p999)
// instead of means: the queueing view the closed loop cannot see.
package main

import (
	"flag"
	"fmt"
	"log"

	"leaftl"
)

func main() {
	name := flag.String("workload", "", "workload profile or timed generator (default MSR-hm, or zipf-hot with -openloop)")
	n := flag.Int("n", 60_000, "requests to replay")
	openloop := flag.Bool("openloop", false, "replay open-loop at recorded arrival times")
	qd := flag.Int("qd", 4, "host queue count for open-loop replay")
	flag.Parse()

	if *openloop {
		openLoop(*name, *n, *qd)
		return
	}
	closedLoop(*name, *n)
}

// newDevice builds the starved-DRAM device every scheme runs on.
func newDevice(mk func(cfg leaftl.DeviceConfig) leaftl.Scheme) (*leaftl.Device, leaftl.Scheme) {
	cfg := leaftl.SimulatorConfig()
	cfg.Flash.BlocksPerChan = 48
	cfg.BufferPages = 512
	cfg.DRAMBytes = cfg.BufferBytes() + 96<<10 // starved mapping+cache pool

	scheme := mk(cfg)
	dev, err := leaftl.OpenSimulated(cfg, scheme)
	if err != nil {
		log.Fatal(err)
	}
	return dev, scheme
}

// warm sequentially writes the first fp pages so reads hit mapped pages.
func warm(dev *leaftl.Device, fp int) {
	for lpa := 0; lpa < fp; lpa += 64 {
		n := 64
		if lpa+n > fp {
			n = fp - lpa
		}
		if _, err := dev.Write(leaftl.LPA(lpa), n); err != nil {
			log.Fatal(err)
		}
	}
}

var schemes = []func(cfg leaftl.DeviceConfig) leaftl.Scheme{
	func(cfg leaftl.DeviceConfig) leaftl.Scheme { return leaftl.NewDFTL(cfg.Flash.PageSize, 0) },
	func(cfg leaftl.DeviceConfig) leaftl.Scheme { return leaftl.NewSFTL(cfg.Flash.PageSize, 0) },
	func(cfg leaftl.DeviceConfig) leaftl.Scheme { return leaftl.NewLeaFTL(0, cfg.Flash.PageSize) },
}

func closedLoop(name string, n int) {
	if name == "" {
		name = "MSR-hm"
	}
	p, ok := leaftl.WorkloadByName(name)
	if !ok {
		log.Fatalf("unknown workload %q", name)
	}

	type result struct {
		name    string
		meanUS  float64
		mapping int
		hitPct  float64
	}
	var results []result
	for _, mk := range schemes {
		dev, scheme := newDevice(mk)
		warm(dev, p.Footprint(dev.LogicalPages()))
		if err := leaftl.Replay(dev, p.Generate(dev.LogicalPages(), n, 1)); err != nil {
			log.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			log.Fatal(err)
		}
		results = append(results, result{
			name:    scheme.Name(),
			meanUS:  float64(dev.ReadLatency().MeanDuration().Nanoseconds()) / 1e3,
			mapping: scheme.FullSizeBytes(),
			hitPct:  100 * dev.Stats().CacheHitRatio(),
		})
	}

	fmt.Printf("workload %s, %d requests (closed loop)\n\n", p.Name, n)
	fmt.Printf("%-8s  %-14s  %-12s  %s\n", "scheme", "mean read", "mapping", "cache hits")
	base := results[0].meanUS
	for _, r := range results {
		fmt.Printf("%-8s  %7.1fµs %.2fx  %8.1f KiB  %5.1f%%\n",
			r.name, r.meanUS, r.meanUS/base, float64(r.mapping)/1024, r.hitPct)
	}
}

func openLoop(name string, n, qd int) {
	if name == "" {
		name = "zipf-hot"
	}
	gen, ok := leaftl.TimedWorkloads()[name]
	if !ok {
		log.Fatalf("unknown timed generator %q (want zipf-hot or mixed-rw)", name)
	}

	fmt.Printf("workload %s, %d requests, %d host queues (open loop)\n\n", name, n, qd)
	fmt.Printf("%-8s  %9s  %9s  %9s  %9s  %8s\n", "scheme", "p50", "p95", "p99", "p999", "kIOPS")
	for _, mk := range schemes {
		dev, scheme := newDevice(mk)
		reqs := gen.Generate(dev.LogicalPages(), n, 1)
		fp := 0
		for _, r := range reqs {
			if end := int(r.LPA) + r.Pages; end > fp {
				fp = end
			}
		}
		warm(dev, fp)
		res, err := leaftl.ReplayOpenLoop(dev, reqs, leaftl.OpenLoopConfig{Queues: qd})
		if err != nil {
			log.Fatal(err)
		}
		s := res.Latency.Summary()
		fmt.Printf("%-8s  %8.1fµs %8.1fµs %8.1fµs %8.1fµs  %8.1f\n",
			scheme.Name(), us(s.P50), us(s.P95), us(s.P99), us(s.P999), res.IOPS()/1e3)
	}
}

func us(d interface{ Nanoseconds() int64 }) float64 { return float64(d.Nanoseconds()) / 1e3 }
