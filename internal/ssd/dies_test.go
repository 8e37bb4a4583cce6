package ssd

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/flash"
	"leaftl/internal/leaftl"
	"leaftl/internal/trace"
)

// diesConfig returns the standard test device on a dies × planes
// geometry.
func diesConfig(dies, planes int) Config {
	cfg := testConfig()
	cfg.Flash.DiesPerChan = dies
	cfg.Flash.PlanesPerDie = planes
	return cfg
}

// TestDies1BitIdentity is the differential gate of the die geometry: one
// die and one plane per channel, spelled out, must be the device that
// never heard of dies — same state digest, same operation counters, same
// latency distributions, same clock. Each scenario runs on the zero-value
// geometry and on DiesPerChan = PlanesPerDie = 1 with a bus-transfer
// time that would show in every latency if the die-aware bus/cell split
// leaked into the one-die path.
func TestDies1BitIdentity(t *testing.T) {
	geometries := func() (absent, one Config) {
		absent = testConfig()
		one = diesConfig(1, 1)
		one.Flash.BusXfer = 7 * time.Microsecond
		return absent, one
	}

	// Scenario A: GC-heavy LeaFTL run; exercises flush lanes, GC streams,
	// the allocator and translation-page charging.
	t.Run("state", func(t *testing.T) {
		run := func(cfg Config) *Device {
			d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
			if err := trace.Replay(d, mixedTrace(seededRand(t, 911), d.LogicalPages(), 20000)); err != nil {
				t.Fatal(err)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return d
		}
		absentCfg, oneCfg := geometries()
		absent, one := run(absentCfg), run(oneCfg)
		if absent.Stats().GCErases == 0 {
			t.Fatal("scenario exercised no GC; identity coverage too shallow")
		}
		requireSameDevice(t, "no die geometry vs dies=1 planes=1", absent, one)
	})

	// Scenario B: GC-free, meta-free DFTL run issued at explicit arrival
	// times, so the latency histograms are pure flash timing: reads
	// queueing behind and preempting a flush's program backlog.
	t.Run("timing", func(t *testing.T) {
		run := func(cfg Config) *Device {
			d := newTestDevice(t, cfg, dftl.New(cfg.Flash.PageSize, 1<<20))
			logical := d.LogicalPages()
			for lpa := 0; lpa < logical; lpa += 8 {
				n := 8
				if lpa+n > logical {
					n = logical - lpa
				}
				if _, err := d.WriteAt(addr.LPA(lpa), n, d.Now()); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			d.AdvanceTo(d.Now() + 10*time.Second)
			d.ResetMetrics()

			rng := seededRand(t, 523)
			now := d.Now()
			var writes int
			for i := 0; i < 4000; i++ {
				now += time.Duration(rng.Intn(30)) * time.Microsecond
				lpa := addr.LPA(rng.Intn(logical - 8))
				var err error
				if writes < 480 && rng.Intn(100) < 12 {
					n := 1 + rng.Intn(4)
					writes += n
					_, err = d.WriteAt(lpa, n, now)
				} else {
					_, err = d.ReadAt(lpa, 1+rng.Intn(2), now)
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			return d
		}
		absentCfg, oneCfg := geometries()
		absent, one := run(absentCfg), run(oneCfg)
		if st := absent.Stats(); st.GCRuns != 0 || st.MetaReads != 0 || st.MetaWrites != 0 {
			t.Fatalf("timing scenario no longer meta/GC-free: %+v", st)
		}
		if rl := absent.ReadLatency().Summary(); rl.Count == 0 || rl.Peak <= 2*absentCfg.Flash.ReadLatency {
			t.Fatalf("timing scenario saw no queueing (read latency %+v)", rl)
		}
		requireSameDevice(t, "no die geometry vs dies=1 planes=1", absent, one)
	})
}

// TestAllocBlockOnRandomizedAgainstReference mirrors the victim-index
// reference test for the rotating allocator: random interleavings of
// die-targeted allocations and block returns must track a straightline
// reference model exactly — same picks, same residual list order. The
// model is the rule as stated: walk the die's channels in rotation from
// its cursor, take the oldest free block of the first channel that has
// one (the oldest free block of any die when the die has none), and
// leave the cursor one channel past the block taken.
func TestAllocBlockOnRandomizedAgainstReference(t *testing.T) {
	cfg := diesConfig(4, 1)
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	rng := seededRand(t, 77)
	fc := cfg.Flash

	ref := append([]flash.BlockID(nil), d.free...)
	cursor := make([]int, fc.Dies())
	refTake := func(die int) flash.BlockID {
		idx := 0
	search:
		for k := 0; k < fc.Channels; k++ {
			ch := (cursor[die] + k) % fc.Channels
			for i, b := range ref {
				if fc.DieOfBlock(b) == die && int(b)%fc.Channels == ch {
					idx = i
					break search
				}
			}
		}
		b := ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		cursor[die] = (int(b)%fc.Channels + 1) % fc.Channels
		return b
	}

	var allocated []flash.BlockID
	lastChan := make([]int, fc.Dies())
	for i := range lastChan {
		lastChan[i] = -1
	}
	for op := 0; op < 20000; op++ {
		if len(ref) > 4 && (len(allocated) == 0 || rng.Intn(2) == 0) {
			die := rng.Intn(fc.Dies())
			dieHadFree := false
			otherChan := false // the die has a free block off the channel it took last
			for _, b := range ref {
				if fc.DieOfBlock(b) == die {
					dieHadFree = true
					otherChan = otherChan || fc.ChannelOfBlock(b) != lastChan[die]
				}
			}
			got, err := d.allocBlockOn(die, 0)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if want := refTake(die); got != want {
				t.Fatalf("op %d: allocBlockOn(die %d) = block %d, reference %d", op, die, got, want)
			}
			if dieHadFree && fc.DieOfBlock(got) != die {
				t.Fatalf("op %d: die %d available but block %d (die %d) returned",
					op, die, got, fc.DieOfBlock(got))
			}
			if otherChan && fc.ChannelOfBlock(got) == lastChan[die] {
				t.Fatalf("op %d: die %d got channel %d twice in a row with other channels free",
					op, die, lastChan[die])
			}
			lastChan[die] = fc.ChannelOfBlock(got)
			allocated = append(allocated, got)
		} else {
			// Return a random allocated block, as a GC erase would.
			i := rng.Intn(len(allocated))
			b := allocated[i]
			allocated = append(allocated[:i], allocated[i+1:]...)
			d.free = append(d.free, b)
			d.isFree[b] = true
			d.blockSeq[b] = 0
			ref = append(ref, b)
		}
		if len(d.free) != len(ref) {
			t.Fatalf("op %d: free list length %d, reference %d", op, len(d.free), len(ref))
		}
		for i := range ref {
			if d.free[i] != ref[i] {
				t.Fatalf("op %d: free list diverges at %d: %d vs %d", op, i, d.free[i], ref[i])
			}
		}
	}
}

// TestDieInterleavedFlush pins the flush striping layout: a full buffer
// flushed on a 4-die geometry lands round-robin across per-die lanes, in
// ascending page order within each lane, and the device still satisfies
// every invariant with its lanes left open.
func TestDieInterleavedFlush(t *testing.T) {
	cfg := diesConfig(4, 1)
	d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize))
	lpas := make([]addr.LPA, 0, cfg.BufferPages)
	for i := 0; i < cfg.BufferPages; i++ {
		lpas = append(lpas, addr.LPA(i*3)) // distinct, in sorted order
	}
	for _, l := range lpas {
		if _, err := d.Write(l, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(lpas, func(i, j int) bool { return lpas[i] < lpas[j] })
	fc := cfg.Flash
	lanePages := make(map[int][]addr.PPA)
	for i, l := range lpas {
		ppa := d.truth[l]
		if ppa == addr.InvalidPPA {
			t.Fatalf("LPA %d unmapped after flush", l)
		}
		lane := i % fc.Dies()
		if got := fc.DieOfBlock(fc.BlockOf(ppa)); got != lane {
			t.Errorf("sorted flush page %d (LPA %d) on die %d, want lane %d", i, l, got, lane)
		}
		lanePages[lane] = append(lanePages[lane], ppa)
	}
	for lane, pages := range lanePages {
		for i := 1; i < len(pages); i++ {
			if pages[i] <= pages[i-1] {
				t.Errorf("lane %d pages out of order: %d after %d", lane, pages[i], pages[i-1])
			}
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Read-back through the learned mapping still verifies.
	for _, l := range lpas {
		if _, err := d.Read(l, 1); err != nil {
			t.Fatalf("read LPA %d: %v", l, err)
		}
	}
}

// TestDeviceWorkloadAcrossDies drives the full mixed workload (flush, GC,
// wear paths) on every geometry the die sweep benchmarks, checking the
// invariant audit and that GC actually ran.
func TestDeviceWorkloadAcrossDies(t *testing.T) {
	for _, geo := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("dies%d_planes%d", geo[0], geo[1]), func(t *testing.T) {
			cfg := diesConfig(geo[0], geo[1])
			d := newTestDevice(t, cfg, leaftl.New(4, cfg.Flash.PageSize, leaftl.WithCompactEvery(2000)))
			if err := trace.Replay(d, mixedTrace(seededRand(t, 1234), d.LogicalPages(), 8000)); err != nil {
				t.Fatal(err)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := d.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if d.Stats().GCErases == 0 {
				t.Fatal("workload exercised no GC")
			}
		})
	}
}

// TestMetaOverlapPipelined: on a multi-die geometry, translation-page
// writes complete behind the charging request and their wait accrues in
// MetaOverlap; with one die they serialize and the counter stays zero.
func TestMetaOverlapPipelined(t *testing.T) {
	run := func(dies int) Stats {
		cfg := diesConfig(dies, 1)
		sch := dftl.New(cfg.Flash.PageSize, 1<<20)
		d := newTestDevice(t, cfg, sch)
		d.SetMappingBudget(sch.FullSizeBytes() / 4)
		rng := seededRand(t, 99)
		logical := d.LogicalPages()
		for i := 0; i < 6000; i++ {
			var err error
			if rng.Intn(100) < 60 {
				_, err = d.Write(addr.LPA(rng.Intn(logical-8)), 1+rng.Intn(8))
			} else {
				_, err = d.Read(addr.LPA(rng.Intn(logical)), 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return d.Stats()
	}
	single := run(1)
	if single.MetaOverlap != 0 {
		t.Errorf("one-die MetaOverlap = %v, want 0 (meta writes serialize)", single.MetaOverlap)
	}
	multi := run(4)
	if multi.MetaWrites == 0 {
		t.Fatal("budgeted workload produced no translation-page writes")
	}
	if multi.MetaOverlap == 0 {
		t.Error("multi-die MetaOverlap = 0: translation-page writes not pipelined")
	}
}
