// Package integration holds cross-module end-to-end tests: workload
// generation → trace serialization → replay on devices running every
// translation scheme, checking the global invariants the paper's design
// rests on.
package integration

import (
	"bytes"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/sftl"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// cacheHitLatency is the device's service time for a request served
// from DRAM (write buffer or data cache).
const cacheHitLatency = time.Microsecond

func smallConfig() ssd.Config {
	cfg := ssd.SimulatorConfig()
	cfg.Flash.BlocksPerChan = 16
	cfg.Flash.OOBSize = 256
	cfg.BufferPages = 256
	cfg.DRAMBytes = cfg.BufferBytes() + 64<<10
	return cfg
}

// TestEndToEndAllSchemesAllWorkloads pipes every cataloged workload
// through the text trace format and replays it on all three schemes.
// The device self-verifies every read, so completion is correctness.
func TestEndToEndAllSchemesAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep")
	}
	for _, p := range append(workload.Catalog(), workload.AppCatalog()...) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cfg := smallConfig()
			reqs := p.Generate(cfg.LogicalPages(), 6000, 42)

			// Round-trip through the on-disk trace format.
			var buf bytes.Buffer
			if err := trace.Write(&buf, reqs); err != nil {
				t.Fatal(err)
			}
			parsed, err := trace.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(parsed) != len(reqs) {
				t.Fatalf("trace round trip lost requests: %d vs %d", len(parsed), len(reqs))
			}

			for _, mk := range []func() ftl.Scheme{
				func() ftl.Scheme { return leaftl.New(0, cfg.Flash.PageSize) },
				func() ftl.Scheme { return leaftl.New(8, cfg.Flash.PageSize) },
				func() ftl.Scheme { return dftl.New(cfg.Flash.PageSize, 0) },
				func() ftl.Scheme { return sftl.New(cfg.Flash.PageSize, 0) },
			} {
				scheme := mk()
				dev, err := ssd.New(cfg, scheme)
				if err != nil {
					t.Fatal(err)
				}
				fp := p.Footprint(dev.LogicalPages())
				for lpa := 0; lpa+64 <= fp; lpa += 64 {
					if _, err := dev.Write(addr.LPA(lpa), 64); err != nil {
						t.Fatal(err)
					}
				}
				if err := trace.Replay(dev, parsed); err != nil {
					t.Fatalf("%s: %v", scheme.Name(), err)
				}
				if err := dev.Flush(); err != nil {
					t.Fatal(err)
				}
				if dev.Stats().HostPagesRead == 0 && p.ReadFrac > 0.05 {
					t.Errorf("%s: no reads recorded", scheme.Name())
				}
			}
		})
	}
}

// TestSchemesAgreeOnTranslations replays one workload and then asks all
// schemes to translate the same LPAs: exact schemes must agree with each
// other, and LeaFTL within its gamma.
func TestSchemesAgreeOnTranslations(t *testing.T) {
	cfg := smallConfig()
	p, _ := workload.ByName("MSR-hm")
	reqs := p.Generate(cfg.LogicalPages(), 8000, 7)

	type devScheme struct {
		dev *ssd.Device
		sch ftl.Scheme
	}
	var devs []devScheme
	for _, mk := range []func() ftl.Scheme{
		func() ftl.Scheme { return leaftl.New(4, cfg.Flash.PageSize) },
		func() ftl.Scheme { return dftl.New(cfg.Flash.PageSize, 0) },
		func() ftl.Scheme { return sftl.New(cfg.Flash.PageSize, 0) },
	} {
		sch := mk()
		dev, err := ssd.New(cfg, sch)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Replay(dev, reqs); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		devs = append(devs, devScheme{dev, sch})
	}

	// The three devices executed identical request streams, so their
	// logical contents match; their physical layouts are independent but
	// every scheme must hold a mapping for exactly the same LPA set.
	fp := p.Footprint(cfg.LogicalPages())
	for lpa := addr.LPA(0); int(lpa) < fp; lpa += 13 {
		_, ok0 := devs[0].sch.Translate(lpa)
		_, ok1 := devs[1].sch.Translate(lpa)
		_, ok2 := devs[2].sch.Translate(lpa)
		if ok0 != ok1 || ok1 != ok2 {
			t.Fatalf("schemes disagree on whether LPA %d is mapped: %v %v %v", lpa, ok0, ok1, ok2)
		}
	}
}

// TestLatencyMetamorphic checks the latency model's ordering laws on a
// live device: a repeated read (cache hit) is never slower than its first
// (flash) read, and every flash-backed read costs at least ReadLatency.
func TestLatencyMetamorphic(t *testing.T) {
	cfg := smallConfig()
	cfg.DRAMBytes = cfg.BufferBytes() + 8<<20 // roomy cache for hits
	dev, err := ssd.New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for lpa := 0; lpa < 4096; lpa += 64 {
		if _, err := dev.Write(addr.LPA(lpa), 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	for lpa := addr.LPA(0); lpa < 4096; lpa += 97 {
		first, err := dev.Read(lpa, 1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := dev.Read(lpa, 1)
		if err != nil {
			t.Fatal(err)
		}
		if second > first {
			t.Fatalf("LPA %d: cached re-read %v slower than first read %v", lpa, second, first)
		}
		if first < cfg.Flash.ReadLatency && first > 2*cacheHitLatency {
			t.Fatalf("LPA %d: flash-backed read %v under ReadLatency %v", lpa, first, cfg.Flash.ReadLatency)
		}
	}
}

// TestGammaSweepMemoryMonotoneOnStrided verifies the core γ trade-off
// end-to-end on a stride-heavy stream: the learned table at γ=16 is no
// larger than at γ=0.
func TestGammaSweepMemoryMonotoneOnStrided(t *testing.T) {
	cfg := smallConfig()
	p, _ := workload.ByName("MSR-prxy")
	reqs := p.Generate(cfg.LogicalPages(), 10000, 3)
	var sizes []int
	for _, gamma := range []int{0, 16} {
		dev, err := ssd.New(cfg, leaftl.New(gamma, cfg.Flash.PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Replay(dev, reqs); err != nil {
			t.Fatal(err)
		}
		if err := dev.Flush(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, dev.Scheme().FullSizeBytes())
	}
	if sizes[1] > sizes[0] {
		t.Errorf("gamma=16 table (%dB) larger than gamma=0 (%dB) on strided workload", sizes[1], sizes[0])
	}
}

// TestWriteLatencyBackpressure verifies the flush back-pressure: a burst
// far beyond the flash program bandwidth must surface as write latency
// instead of unbounded queue growth.
func TestWriteLatencyBackpressure(t *testing.T) {
	cfg := smallConfig()
	dev, err := ssd.New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	var maxLat time.Duration
	for i := 0; i < 40000; i++ {
		lat, err := dev.Write(addr.LPA(i%dev.LogicalPages()), 1)
		if err != nil {
			t.Fatal(err)
		}
		if lat > maxLat {
			maxLat = lat
		}
	}
	if maxLat <= cacheHitLatency {
		t.Error("sustained overload never stalled a write; back-pressure missing")
	}
}
