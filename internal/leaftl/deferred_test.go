package leaftl

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/flash"
	"leaftl/internal/ssd"
)

// deferConfig is a small device, 4 channels × 16 blocks × 64 pages with
// a one-block write buffer, whose mapping budget is pool bytes.
func deferConfig(pool int64) ssd.Config {
	cfg := ssd.Config{
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
		OverProvision: 0.25,
		BufferPages:   64,
		SortBuffer:    true,
		Mode:          ssd.MappingFirst,
		GCLowWater:    0.1,
		GCHighWater:   0.2,
		WearDelta:     1 << 30,
	}
	cfg.DRAMBytes = cfg.BufferBytes() + pool
	return cfg
}

// deferRun builds a full-preset device on cfg at the given GOMAXPROCS,
// fills it sequentially, churns it with overwrites (half of them to a
// hot fifth, which drives GC relocation) and reads, flushes and checks
// its invariants. It returns the device and how many commits the pager
// deferred and how many it committed synchronously.
func deferRun(t *testing.T, cfg ssd.Config, procs int) (d *ssd.Device, deferred, synced int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s := New(8, cfg.Flash.PageSize, WithExactBitmap(), WithCompactEvery(400))
	s.commitHook = func(d bool) {
		if d {
			deferred++
		} else {
			synced++
		}
	}
	d, err := ssd.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ time.Duration, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	logical := d.LogicalPages()
	for lpa := 0; lpa+8 <= logical; lpa += 8 {
		must(d.Write(addr.LPA(lpa), 8))
	}
	rng := rand.New(rand.NewSource(31))
	for op := 0; op < 5000; op++ {
		n := 1 + rng.Intn(3)
		switch lpa := rng.Intn(logical - n); op % 4 {
		case 0:
			must(d.Write(addr.LPA(lpa), n))
		case 1, 2:
			must(d.Write(addr.LPA(lpa%(logical/5)), n))
		default:
			must(d.Read(addr.LPA(lpa), n))
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return d, deferred, synced
}

// requireSameDevice requires two devices to end in the same state, with
// the same counters, latencies and clock.
func requireSameDevice(t *testing.T, what string, a, b *ssd.Device) {
	t.Helper()
	if ga, gb := a.StateDigest(), b.StateDigest(); ga != gb {
		t.Errorf("%s: state digest %#x != %#x", what, ga, gb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("%s: counters diverged:\n  %+v\n  %+v", what, sa, sb)
	}
	if fa, fb := a.FlashStats(), b.FlashStats(); fa != fb {
		t.Errorf("%s: flash counters diverged: %+v vs %+v", what, fa, fb)
	}
	if ra, rb := a.ReadLatency().Summary(), b.ReadLatency().Summary(); ra != rb {
		t.Errorf("%s: read latency diverged:\n  %+v\n  %+v", what, ra, rb)
	}
	if wa, wb := a.WriteLatency().Summary(), b.WriteLatency().Summary(); wa != wb {
		t.Errorf("%s: write latency diverged:\n  %+v\n  %+v", what, wa, wb)
	}
	if a.Now() != b.Now() {
		t.Errorf("%s: clocks diverged: %v vs %v", what, a.Now(), b.Now())
	}
}

// TestDeviceDeferredCommitMatchesSerial: on a GC-churning full-preset
// device whose pool holds every group at the footprint ceiling twice
// over, the pager defers every commit (Pager.Defer), and the learned
// table finishes each batch behind the device. At GOMAXPROCS 1, 2 and 4
// the device ends bit-identical.
func TestDeviceDeferredCommitMatchesSerial(t *testing.T) {
	cfg := deferConfig(0)
	groups := int64(cfg.Flash.Channels*cfg.Flash.BlocksPerChan*cfg.Flash.PagesPerBlock) / addr.GroupSize
	cfg = deferConfig(2 * groups * 20 * addr.GroupSize)
	serial, _, _ := deferRun(t, cfg, 1)
	if st := serial.Stats(); st.GCErases == 0 || st.Relearns == 0 {
		t.Fatalf("churn too shallow (no GC or relearning): %+v", st)
	}
	for _, procs := range []int{2, 4} {
		d, deferred, synced := deferRun(t, cfg, procs)
		if synced != 0 || deferred == 0 {
			t.Errorf("GOMAXPROCS=%d: %d commits deferred, %d synchronous; want all deferred", procs, deferred, synced)
		}
		requireSameDevice(t, "deferred commits", serial, d)
	}
}

// TestDeviceDeferredCommitSwitchesPaths: a pool of three groups'
// ceiling lets the pager defer batches of a group or two while the table
// is small (the sequential fill's among them) but not the churn's
// batches spread over many groups, which commit synchronously (Update,
// then Enforce). Both paths run, and the device ends as it does at
// GOMAXPROCS = 1.
func TestDeviceDeferredCommitSwitchesPaths(t *testing.T) {
	cfg := deferConfig(3 * 20 * addr.GroupSize)
	serial, _, _ := deferRun(t, cfg, 1)
	d, deferred, synced := deferRun(t, cfg, 2)
	if deferred == 0 || synced == 0 {
		t.Fatalf("%d commits deferred, %d synchronous; want both paths", deferred, synced)
	}
	requireSameDevice(t, "switching paths", serial, d)
}
