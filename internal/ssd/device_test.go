package ssd

import (
	"math/rand"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/sftl"
)

// testConfig returns a small device: 4 channels × 16 blocks × 64 pages
// (16MB of 4KB pages), 2MB DRAM, 1-block write buffer.
func testConfig() Config {
	return Config{
		Flash: flash.Config{
			Channels:      4,
			BlocksPerChan: 16,
			PagesPerBlock: 64,
			PageSize:      4096,
			OOBSize:       128,
			ReadLatency:   20 * time.Microsecond,
			WriteLatency:  200 * time.Microsecond,
			EraseLatency:  1500 * time.Microsecond,
		},
		DRAMBytes:     2 << 20,
		OverProvision: 0.25,
		BufferPages:   64,
		SortBuffer:    true,
		Mode:          MappingFirst,
		GCLowWater:    0.1,
		GCHighWater:   0.2,
		WearDelta:     1 << 30, // effectively off unless a test enables it
	}
}

// budgetedConfig is testConfig with pool bytes of DRAM beside the write
// buffer for the mapping and the data cache, so the mapping budget binds
// from the first write.
func budgetedConfig(pool int64) Config {
	cfg := testConfig()
	cfg.DRAMBytes = cfg.BufferBytes() + pool
	return cfg
}

func newTestDevice(t *testing.T, cfg Config, scheme ftl.Scheme) *Device {
	t.Helper()
	d, err := New(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// seededRand returns the deterministic RNG driving a randomized
// harness, and logs the seed when the test fails so the exact run can
// be reproduced.
func seededRand(t testing.TB, seed int64) *rand.Rand {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("randomized harness seed: %d", seed)
		}
	})
	return rand.New(rand.NewSource(seed))
}

func schemesUnderTest(cfg Config, gamma int) map[string]func() ftl.Scheme {
	return map[string]func() ftl.Scheme{
		"LeaFTL": func() ftl.Scheme { return leaftl.New(gamma, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)) },
		"DFTL":   func() ftl.Scheme { return dftl.New(cfg.Flash.PageSize, 1<<20) },
		"SFTL":   func() ftl.Scheme { return sftl.New(cfg.Flash.PageSize, 1<<20) },
	}
}

func TestDeviceSequentialWriteRead(t *testing.T) {
	cfg := testConfig()
	for name, mk := range schemesUnderTest(cfg, 0) {
		t.Run(name, func(t *testing.T) {
			d := newTestDevice(t, cfg, mk())
			n := d.LogicalPages() / 2
			for lpa := 0; lpa < n; lpa += 8 {
				if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			for lpa := 0; lpa < n; lpa += 8 {
				if _, err := d.Read(addr.LPA(lpa), 8); err != nil {
					t.Fatal(err)
				}
			}
			st := d.Stats()
			if st.HostPagesWrite != uint64(n) || st.HostPagesRead != uint64(n) {
				t.Errorf("host pages: wrote %d read %d, want %d", st.HostPagesWrite, st.HostPagesRead, n)
			}
			if st.Mispredictions != 0 {
				t.Errorf("gamma=0 run had %d mispredictions", st.Mispredictions)
			}
		})
	}
}

// TestDeviceRandomWorkloadIntegrity hammers each scheme with a mixed
// random workload sized to force garbage collection several times over;
// the device self-verifies every read against ground-truth tokens, so
// completing without error is the integrity assertion.
func TestDeviceRandomWorkloadIntegrity(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		cfg := testConfig()
		for name, mk := range schemesUnderTest(cfg, gamma) {
			if gamma > 0 && name != "LeaFTL" {
				continue
			}
			t.Run(name+"/"+gammaLabel(gamma), func(t *testing.T) {
				d := newTestDevice(t, cfg, mk())
				rng := seededRand(t, int64(7+gamma))
				logical := d.LogicalPages()
				written := make(map[int]bool)
				for i := 0; i < 30000; i++ {
					lpa := rng.Intn(logical - 16)
					n := 1 + rng.Intn(8)
					if rng.Intn(100) < 60 {
						if _, err := d.Write(addr.LPA(lpa), n); err != nil {
							t.Fatalf("op %d: write: %v", i, err)
						}
						for j := 0; j < n; j++ {
							written[lpa+j] = true
						}
					} else if written[lpa] {
						if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
							t.Fatalf("op %d: read: %v", i, err)
						}
					}
				}
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
				// Read back everything ever written.
				for lpa := range written {
					if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
						t.Fatalf("final read %d: %v", lpa, err)
					}
				}
				st := d.Stats()
				if st.GCErases == 0 {
					t.Error("workload did not trigger GC; test is too small")
				}
				if waf := d.WAF(); waf < 1 {
					t.Errorf("WAF = %v < 1", waf)
				}
			})
		}
	}
}

func gammaLabel(g int) string {
	if g == 0 {
		return "gamma0"
	}
	return "gamma4"
}

func TestDeviceMispredictionRecovery(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize))
	rng := seededRand(t, 3)
	logical := d.LogicalPages()
	// Irregular ascending writes create approximate segments.
	var lpas []int
	l := 0
	for l < logical-1 {
		l += 1 + rng.Intn(3)
		if l >= logical {
			break
		}
		lpas = append(lpas, l)
	}
	for _, lpa := range lpas {
		if _, err := d.Write(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, lpa := range lpas {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.ApproxReads == 0 {
		t.Error("no reads were served by approximate segments")
	}
	t.Logf("approx reads %d, mispredictions %d, OOB fallbacks %d",
		st.ApproxReads, st.Mispredictions, st.OOBFallbacks)
}

func TestDeviceReadUnwritten(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	if _, err := d.Read(5, 1); err != nil {
		t.Fatal(err)
	}
	if d.Stats().UnmappedReads != 1 {
		t.Errorf("UnmappedReads = %d, want 1", d.Stats().UnmappedReads)
	}
}

func TestDeviceRangeChecks(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	if _, err := d.Write(addr.LPA(d.LogicalPages()-1), 2); err == nil {
		t.Error("write past capacity should fail")
	}
	if _, err := d.Read(0, 0); err == nil {
		t.Error("zero-length read should fail")
	}
}

func TestDeviceLatencyOrdering(t *testing.T) {
	// A cache hit must be far cheaper than a flash read, and a flash
	// read at least ReadLatency.
	cfg := testConfig()
	cfg.DRAMBytes = 1 << 20 // small cache
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	for i := 0; i < 256; i += 1 {
		if _, err := d.Write(addr.LPA(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	lat1, err := d.Read(10, 1) // miss → flash
	if err != nil {
		t.Fatal(err)
	}
	lat2, err := d.Read(10, 1) // hit → DRAM
	if err != nil {
		t.Fatal(err)
	}
	if lat1 < cfg.Flash.ReadLatency {
		t.Errorf("flash-backed read latency %v < ReadLatency %v", lat1, cfg.Flash.ReadLatency)
	}
	if lat2 > lat1 {
		t.Errorf("cache hit (%v) slower than flash read (%v)", lat2, lat1)
	}
}

func TestDeviceWearLeveling(t *testing.T) {
	cfg := testConfig()
	cfg.WearDelta = 2
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	rng := seededRand(t, 11)
	hot := d.LogicalPages() / 8
	// Write a cold region once...
	for lpa := 0; lpa < d.LogicalPages()/2; lpa++ {
		if _, err := d.Write(addr.LPA(lpa), 1); err != nil {
			t.Fatal(err)
		}
	}
	// ...then hammer a hot region to skew erase counts.
	for i := 0; i < 60000; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(hot)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().WearMoves == 0 {
		t.Error("wear leveling never triggered despite skewed erases")
	}
}

func TestDeviceRecovery(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		t.Run(gammaLabel(gamma), func(t *testing.T) {
			cfg := testConfig()
			d := newTestDevice(t, cfg, leaftl.New(gamma, cfg.Flash.PageSize))
			rng := seededRand(t, 5)
			logical := d.LogicalPages()
			written := map[int]bool{}
			for i := 0; i < 20000; i++ {
				lpa := rng.Intn(logical - 8)
				n := 1 + rng.Intn(4)
				if _, err := d.Write(addr.LPA(lpa), n); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < n; j++ {
					written[lpa+j] = true
				}
			}
			// Crash without flushing: buffered writes are lost, flushed
			// state must be fully recoverable.
			rep, err := d.Recover(leaftl.New(gamma, cfg.Flash.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if rep.MappingsRebuilt == 0 || rep.ScanTime == 0 {
				t.Errorf("empty recovery report: %+v", rep)
			}
			for lpa := range written {
				if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
					t.Fatalf("post-recovery read %d: %v", lpa, err)
				}
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.BufferPages = 63 // not a block multiple
	if err := bad.Validate(); err == nil {
		t.Error("BufferPages=63 accepted")
	}
	bad = good
	bad.DRAMBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("DRAMBytes=0 accepted")
	}
	bad = good
	bad.GCLowWater = 0.5
	bad.GCHighWater = 0.4
	if err := bad.Validate(); err == nil {
		t.Error("inverted GC watermarks accepted")
	}
}

func TestGammaTooLargeForOOB(t *testing.T) {
	cfg := testConfig()
	// OOB 128B → 32 entries → gamma ≤ 15.
	if _, err := New(cfg, leaftl.New(16, cfg.Flash.PageSize)); err == nil {
		t.Error("gamma=16 with 32 OOB entries should be rejected")
	}
	if _, err := New(cfg, leaftl.New(15, cfg.Flash.PageSize)); err != nil {
		t.Errorf("gamma=15 rejected: %v", err)
	}
}
