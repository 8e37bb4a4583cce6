package ssd

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/dftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/trace"
)

// runStateScenario is a GC-heavy LeaFTL run: flush lanes, GC windows,
// the allocator's channel rotation and translation-page charging.
func runStateScenario(t *testing.T, cfg Config) *Device {
	t.Helper()
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
	if d.Stats().GCErases == 0 {
		t.Fatal("state scenario exercised no GC")
	}
	return d
}

// runTimingScenario is a GC-free, meta-free DFTL run issued at explicit
// arrival times, so its latency histograms are pure flash timing: reads
// queueing behind and preempting a flush's program backlog.
func runTimingScenario(t *testing.T, cfg Config) *Device {
	t.Helper()
	d := newTestDevice(t, cfg, dftl.New(cfg.Flash.PageSize, 1<<20))
	logical := d.LogicalPages()
	for lpa := 0; lpa < logical; lpa += 8 {
		n := min(8, logical-lpa)
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
	if st := d.Stats(); st.GCRuns != 0 || st.MetaReads != 0 || st.MetaWrites != 0 {
		t.Fatalf("timing scenario no longer meta/GC-free: %+v", st)
	}
	if rl := d.ReadLatency().Summary(); rl.Count == 0 || rl.Peak <= 2*cfg.Flash.ReadLatency {
		t.Fatalf("timing scenario saw no queueing (read latency %+v)", rl)
	}
	return d
}

// deviceFingerprint renders what a run left behind: the state digest,
// the clock, every nonzero device and flash counter by name, and the
// read and write latency summaries. Zero counters are left out, so a
// counter that never moves on this geometry can come or go without
// moving the fingerprint.
func deviceFingerprint(d *Device) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digest %016x now %v\n", d.StateDigest(), d.Now())
	nonzero := func(name string, v any) {
		b.WriteString(name)
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); !f.IsZero() {
				fmt.Fprintf(&b, " %s=%v", rv.Type().Field(i).Name, f)
			}
		}
		b.WriteString("\n")
	}
	nonzero("device", d.Stats())
	nonzero("flash", d.FlashStats())
	for _, h := range []struct {
		name string
		s    metrics.Summary
	}{{"read", d.ReadLatency().Summary()}, {"write", d.WriteLatency().Summary()}} {
		fmt.Fprintf(&b, "%s n=%d mean=%v p50=%v p95=%v p99=%v p999=%v peak=%v\n",
			h.name, h.s.Count, h.s.Mean, h.s.P50, h.s.P95, h.s.P99, h.s.P999, h.s.Peak)
	}
	return b.String()
}

// TestOneDieStatePinned pins the simulator's one-die-per-channel device,
// the geometry every figure and benchmark workload runs: each scenario
// must end with the recorded state digest, clock, counters and latency
// percentiles. A change that means to move them re-records the values
// below and says why.
func TestOneDieStatePinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Config) *Device
		want string
	}{
		{"state", runStateScenario, oneDieStatePin},
		{"timing", runTimingScenario, oneDieTimingPin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := deviceFingerprint(tc.run(t, testConfig())); got != tc.want {
				t.Errorf("one-die %s scenario moved:\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
			}
		})
	}
}

const oneDieStatePin = `digest 2a8eb2f31dcb06d5 now 16.959786s
device HostReadReqs=7680 HostWriteReqs=12320 HostPagesRead=7680 HostPagesWrite=55416 BufferHits=232 CacheHits=943 CacheMisses=6505 MetaWrites=47 Mispredictions=1364 ApproxReads=2164 OOBFallbacks=15 MissFallbacks=1363 DoubleReads=1363 FlushedBlocks=841 GCRuns=112 GCPagesMoved=82683 GCErases=2076 GCTime=7.65366s GCStall=6.21966s
flash PageReads=90570 PageWrites=136538 BlockErases=2076
read n=7680 mean=116.724µs p50=19.573µs p95=431.933µs p99=1.271061ms p999=2.673519ms peak=3.639ms
write n=12320 mean=1.303842ms p50=1µs p95=11.828145ms p99=12.710617ms p999=86.596432ms peak=97.703ms
`

const oneDieTimingPin = `digest 0a4bde75b6cf9728 now 10.681733s
device HostReadReqs=3806 HostWriteReqs=194 HostPagesRead=5641 HostPagesWrite=481 BufferHits=56 CacheHits=781 CacheMisses=4804 FlushedBlocks=7
flash PageReads=4804 PageWrites=3520
read n=3806 mean=75.229µs p50=39.241µs p95=231.517µs p99=254.829µs p999=301.416µs peak=311µs
write n=194 mean=1.07703ms p50=1µs p95=1µs p99=48.696752ms p999=58.997462ms peak=59.44ms
`
