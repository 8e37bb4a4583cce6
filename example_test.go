package leaftl_test

import (
	"fmt"
	"log"
	"math/rand"

	"leaftl"
)

// Build a simulated SSD running LeaFTL, write and read some data, and
// see how small the learned mapping table stays next to a page-level
// table.
func ExampleOpenSimulated() {
	// A small device: 16 channels × 16 blocks × 256 pages of 4KB.
	cfg := leaftl.SimulatorConfig()
	cfg.Flash.BlocksPerChan = 16
	cfg.DRAMBytes = 32 << 20
	cfg.BufferPages = cfg.Flash.PagesPerBlock

	dev, err := leaftl.OpenSimulated(cfg, leaftl.NewLeaFTL(0 /* gamma */, cfg.Flash.PageSize))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %d logical pages (%.1f MiB)\n",
		dev.LogicalPages(), float64(dev.LogicalPages())*4/1024)

	// Sequential writes: LeaFTL learns one 8-byte segment per 256 pages.
	const pages = 32768
	for lpa := 0; lpa < pages; lpa += 64 {
		if _, err := dev.Write(leaftl.LPA(lpa), 64); err != nil {
			log.Fatal(err)
		}
	}
	if err := dev.Flush(); err != nil {
		log.Fatal(err)
	}

	// Read everything back; the device verifies data integrity itself.
	var total, n int64
	for lpa := 0; lpa < pages; lpa += 64 {
		lat, err := dev.Read(leaftl.LPA(lpa), 64)
		if err != nil {
			log.Fatal(err)
		}
		total += lat.Microseconds()
		n++
	}

	st := dev.Stats()
	learned := dev.Scheme().FullSizeBytes()
	pageLevel := pages * 8
	fmt.Printf("wrote+read %d pages; avg read-request latency %dµs\n", st.HostPagesRead, total/n)
	fmt.Printf("mapping table: learned %d B vs page-level %d B (%.1fx smaller)\n",
		learned, pageLevel, float64(pageLevel)/float64(learned))
	fmt.Printf("mispredictions: %d (gamma=0 ⇒ all translations exact)\n", st.Mispredictions)
	// Output:
	// device: 52428 logical pages (204.8 MiB)
	// wrote+read 32768 pages; avg read-request latency 1280µs
	// mapping table: learned 1024 B vs page-level 262144 B (256.0x smaller)
	// mispredictions: 0 (gamma=0 ⇒ all translations exact)
}

// Explore LeaFTL's error bound on the standalone learned mapping table:
// a larger gamma admits more approximate segments, shrinking the table
// at the cost of predictions that are off by up to ±gamma pages (the
// paper's §4.4 trade-off).
func ExampleNewMappingTable() {
	// An irregular-but-correlated mapping stream: ascending LPAs with
	// small gaps onto consecutive PPAs (paper Figure 1 C).
	rng := rand.New(rand.NewSource(7))
	var pairs []leaftl.Mapping
	lpa, ppa := leaftl.LPA(0), leaftl.PPA(10_000)
	for len(pairs) < 100_000 {
		lpa += leaftl.LPA(1 + rng.Intn(3))
		pairs = append(pairs, leaftl.Mapping{LPA: lpa, PPA: ppa})
		ppa++
	}

	fmt.Printf("%-6s  %-10s  %-10s  %-9s  %s\n",
		"gamma", "table", "vs page", "segments", "max |error| (checked)")
	for _, gamma := range []int{0, 1, 2, 4, 8, 16} {
		tb := leaftl.NewMappingTable(gamma)
		// Feed in flush-sized batches, as the SSD buffer would.
		for i := 0; i < len(pairs); i += 256 {
			tb.Update(pairs[i:min(i+256, len(pairs))])
		}
		maxErr := int64(0)
		for _, m := range pairs {
			got, _, ok := tb.Lookup(m.LPA)
			if !ok {
				log.Fatalf("gamma %d: lost LPA %d", gamma, m.LPA)
			}
			maxErr = max(maxErr, int64(got)-int64(m.PPA), int64(m.PPA)-int64(got))
		}
		if maxErr > int64(gamma) {
			log.Fatalf("gamma %d: lookup off by %d pages", gamma, maxErr)
		}
		pageLevel := len(pairs) * 8
		fmt.Printf("%-6d  %7.1f KiB  %8.1fx  %-9d  %d\n",
			gamma, float64(tb.SizeBytes())/1024,
			float64(pageLevel)/float64(tb.SizeBytes()), tb.Stats().Segments, maxErr)
	}
	// Output:
	// gamma   table       vs page     segments   max |error| (checked)
	// 0         317.0 KiB       2.5x  40572      0
	// 1         172.8 KiB       4.5x  11469      1
	// 2         155.7 KiB       5.0x  9396       2
	// 4         154.9 KiB       5.0x  9283       4
	// 8         154.9 KiB       5.0x  9280       5
	// 16        154.9 KiB       5.0x  9280       6
}
