package workload

import (
	"math"
	"testing"
	"time"

	"leaftl/internal/trace"
)

func TestArrivalModelStamp(t *testing.T) {
	reqs := make([]trace.Request, 20_000)
	m := ArrivalModel{IOPS: 100_000}
	m.Stamp(reqs, 1)

	prev := time.Duration(-1)
	for i, r := range reqs {
		if r.Arrival < prev {
			t.Fatalf("request %d: arrival %v went backward", i, r.Arrival)
		}
		prev = r.Arrival
	}
	// 20k requests at 100k IOPS ≈ 200ms span (Poisson, so loose bounds).
	span := reqs[len(reqs)-1].Arrival
	if span < 150*time.Millisecond || span > 250*time.Millisecond {
		t.Errorf("span %v, want ≈200ms", span)
	}

	// Same seed → same stamps; different seed → different stamps.
	again := make([]trace.Request, len(reqs))
	m.Stamp(again, 1)
	if again[100].Arrival != reqs[100].Arrival {
		t.Error("Stamp is not deterministic")
	}
	m.Stamp(again, 2)
	if again[100].Arrival == reqs[100].Arrival {
		t.Error("Stamp ignores the seed")
	}
}

func TestArrivalModelBurstPreservesMeanRate(t *testing.T) {
	reqs := make([]trace.Request, 50_000)
	ArrivalModel{IOPS: 100_000, BurstFactor: 8}.Stamp(reqs, 1)
	span := reqs[len(reqs)-1].Arrival
	if span < 350*time.Millisecond || span > 650*time.Millisecond {
		t.Errorf("bursty span %v, want ≈500ms", span)
	}
	// Burstiness should show up as a heavier inter-arrival tail than the
	// steady process: the max gap must far exceed the 10µs mean.
	var maxGap time.Duration
	for i := 1; i < len(reqs); i++ {
		if g := reqs[i].Arrival - reqs[i-1].Arrival; g > maxGap {
			maxGap = g
		}
	}
	if maxGap < 50*time.Microsecond {
		t.Errorf("max inter-arrival gap %v too uniform for a bursty process", maxGap)
	}
}

func TestZipfianGenerate(t *testing.T) {
	z := TimedCatalog()["zipf-hot"].(ZipfianProfile)
	const pages, n = 1 << 16, 10_000
	reqs := z.Generate(pages, n, 1)
	if len(reqs) != n {
		t.Fatalf("generated %d requests, want %d", len(reqs), n)
	}
	footprint := clampFootprint(pages, z.FootprintFrac)
	hotHits := 0
	for i, r := range reqs {
		if int(r.LPA)+r.Pages > footprint {
			t.Fatalf("request %d (%s) outside the %d-page footprint", i, r, footprint)
		}
		if r.Pages < z.MinPages || r.Pages > z.MaxPages {
			t.Fatalf("request %d: %d pages outside [%d,%d]", i, r.Pages, z.MinPages, z.MaxPages)
		}
		if int(r.LPA) < footprint/100 {
			hotHits++
		}
	}
	// Zipf skew: the hottest 1% of the footprint should absorb well over
	// half the accesses.
	if hotHits < n/2 {
		t.Errorf("only %d/%d requests hit the hot 1%%; not Zipfian", hotHits, n)
	}
	if !trace.Timed(reqs) {
		t.Error("zipf-hot trace is untimed")
	}
}

func TestMixedGenerate(t *testing.T) {
	m := TimedCatalog()["mixed-rw"].(MixedProfile)
	const pages, n = 1 << 16, 10_000
	reqs := m.Generate(pages, n, 1)
	if len(reqs) != n {
		t.Fatalf("generated %d requests, want %d", len(reqs), n)
	}
	reads, writes, seqReads := 0, 0, 0
	var prevEnd int
	for _, r := range reqs {
		if r.Op == trace.OpRead {
			reads++
			if int(r.LPA) == prevEnd {
				seqReads++
			}
			prevEnd = int(r.LPA) + r.Pages
		} else {
			writes++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writes=%d; want a mix", reads, writes)
	}
	// Scans are sequential: most reads continue the previous read.
	if seqReads < reads/2 {
		t.Errorf("%d/%d reads sequential; scans are not scanning", seqReads, reads)
	}
	if !trace.Timed(reqs) {
		t.Error("mixed-rw trace is untimed")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []error{
		ZipfianProfile{Name: "z", S: 0.5, ReadFrac: 0.5, MinPages: 1, MaxPages: 4, FootprintFrac: 0.5}.Validate(),
		ZipfianProfile{Name: "z", S: 1.2, ReadFrac: 1.5, MinPages: 1, MaxPages: 4, FootprintFrac: 0.5}.Validate(),
		ZipfianProfile{Name: "z", S: 1.2, ReadFrac: 0.5, MinPages: 4, MaxPages: 1, FootprintFrac: 0.5}.Validate(),
		MixedProfile{Name: "m", ScanReqs: 0, UpdateReqs: 1, ScanPages: 1, UpdateMaxPages: 1, HotFrac: 0.5, HotSpace: 0.1, FootprintFrac: 0.5}.Validate(),
		MixedProfile{Name: "m", ScanReqs: 1, UpdateReqs: 1, ScanPages: 1, UpdateMaxPages: 1, HotFrac: 0.5, HotSpace: 0.1, FootprintFrac: 2}.Validate(),
	}
	for i, err := range bad {
		if err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

// TestZipfianValidateRejectsBadExponents is the regression for the
// rand.NewZipf crash: S ≤ 1 makes NewZipf return nil (panic on first
// draw), and a NaN S sails past a plain "S <= 1" comparison into NaN
// arithmetic. Validate must reject every such exponent up front.
func TestZipfianValidateRejectsBadExponents(t *testing.T) {
	base := ZipfianProfile{
		Name: "bad-zipf", ReadFrac: 0.5, MinPages: 1, MaxPages: 4, FootprintFrac: 0.5,
	}
	for _, s := range []float64{1, 0.5, 0, -2, math.NaN(), math.Inf(1)} {
		p := base
		p.S = s
		if err := p.Validate(); err == nil {
			t.Errorf("S=%v accepted", s)
		}
		// Generate must fail loudly through Validate, not via a nil
		// dereference inside the Zipf sampler.
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("S=%v: Generate did not fail", s)
					return
				}
				if _, ok := r.(error); !ok {
					t.Errorf("S=%v: Generate panicked with %T (%v), want the Validate error", s, r, r)
				}
			}()
			p.Generate(4096, 8, 1)
		}()
	}
	good := base
	good.S = 1.2
	if err := good.Validate(); err != nil {
		t.Fatalf("S=1.2 rejected: %v", err)
	}
	if got := len(good.Generate(4096, 64, 1)); got != 64 {
		t.Errorf("generated %d requests, want 64", got)
	}
}

// TestTimedProfileStampsArrivals checks the Profile→Generator adapter:
// same requests as the underlying profile, now with monotone arrivals.
func TestTimedProfileStampsArrivals(t *testing.T) {
	p, ok := ByName("MSR-prxy")
	if !ok {
		t.Fatal("MSR-prxy missing")
	}
	tp := TimedProfile{Profile: p, Arrivals: ArrivalModel{IOPS: 10_000}}
	reqs := tp.Generate(1<<16, 500, 7)
	if len(reqs) != 500 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	last := time.Duration(-1)
	stamped := false
	for _, r := range reqs {
		if r.Arrival < last {
			t.Fatal("arrivals not monotone")
		}
		if r.Arrival > 0 {
			stamped = true
		}
		last = r.Arrival
	}
	if !stamped {
		t.Error("no arrival timestamps assigned")
	}
	plain := p.Generate(1<<16, 500, 7)
	for i := range reqs {
		if reqs[i].Op != plain[i].Op || reqs[i].LPA != plain[i].LPA || reqs[i].Pages != plain[i].Pages {
			t.Fatalf("request %d diverged from the untimed profile", i)
		}
	}
}
