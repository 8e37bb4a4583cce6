package ssd

import (
	"runtime"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
)

// writeBurstAllocBound caps the mean allocations per host page write of a
// burst that flushes and garbage-collects. The device's own staging is
// reused; what remains is the learned table's amortized growth (segment
// arrays doubling, CRB entries), measured at 0.00025–0.00035 per page.
const writeBurstAllocBound = 0.002

// TestDeviceSteadyStateAllocs is the device's allocation budget. On a
// warmed device whose data cache is smaller than the read set, a read mix
// of hits, misses and evictions, with 32-page scans among short reads,
// allocates nothing: the data cache's node arena and eviction buffer are
// reused, and every page translates through the table's Lookup. A write
// burst that fills the buffer, flushes and triggers GC stays under
// writeBurstAllocBound per page: the flush and GC staging buffers are
// reused across calls.
func TestDeviceSteadyStateAllocs(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	fillSequential(t, d)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	logical := d.LogicalPages()
	if slots := d.cache.Budget() / cfg.Flash.PageSize; slots >= logical/2 {
		t.Fatalf("data cache holds %d pages, read set %d: reads would never evict", slots, logical-4)
	}

	rng := seededRand(t, 3)
	read := func() {
		n := 1 + rng.Intn(4)
		if rng.Intn(4) == 0 {
			n = 32 // a scan
		}
		if _, err := d.Read(addr.LPA(rng.Intn(logical-32)), n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*logical; i++ {
		read() // grow the cache's arena to its working set
	}
	before := d.Stats()
	n := mallocsPer(4000, read)
	t.Logf("read mix: %v allocs per request", n)
	if n != 0 {
		t.Error("read mix allocates; want 0")
	}
	st := d.Stats()
	if st.CacheHits == before.CacheHits || st.CacheMisses == before.CacheMisses {
		t.Fatalf("read mix saw %d hits and %d misses: it must exercise both",
			st.CacheHits-before.CacheHits, st.CacheMisses-before.CacheMisses)
	}

	write := func() {
		if _, err := d.Write(addr.LPA(rng.Intn(logical)), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*logical; i++ {
		write() // churn until GC runs and every staging buffer has grown
	}
	before = d.Stats()
	const burst = 20000
	n = mallocsPer(burst, write)
	t.Logf("write burst: %v allocs per page write", n)
	if n > writeBurstAllocBound {
		t.Errorf("write burst over its bound of %v allocs per page write", writeBurstAllocBound)
	}
	st = d.Stats()
	if st.FlushedBlocks == before.FlushedBlocks || st.GCRuns == before.GCRuns {
		t.Fatalf("write burst flushed %d blocks in %d GC runs: it must do both",
			st.FlushedBlocks-before.FlushedBlocks, st.GCRuns-before.GCRuns)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mallocsPer runs f n times and returns the mean number of heap
// allocations per call. Unlike testing.AllocsPerRun it does not round
// down to a whole number, so a fractional budget can be held.
func mallocsPer(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// BenchmarkDeviceWrite measures the host write path (buffer insert plus
// amortized flush, learning and GC).
func BenchmarkDeviceWrite(b *testing.B) {
	cfg := testConfig()
	d, err := New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		b.Fatal(err)
	}
	rng := seededRand(b, 1)
	logical := d.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(logical-8)), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRead measures the host read path (translation, flash
// model, cache maintenance).
func BenchmarkDeviceRead(b *testing.B) {
	cfg := testConfig()
	d, err := New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		b.Fatal(err)
	}
	logical := d.LogicalPages()
	for lpa := 0; lpa+64 <= logical/2; lpa += 64 {
		if _, err := d.Write(addr.LPA(lpa), 64); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	rng := seededRand(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Read(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
			b.Fatal(err)
		}
	}
}
