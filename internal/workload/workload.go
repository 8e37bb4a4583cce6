// Package workload generates block I/O traces that stand in for the
// paper's evaluation workloads: five MSR Cambridge server traces, two FIU
// traces (§4.1, Figure 15 ff.), and the five application workloads run on
// the real-SSD prototype (Table 2).
//
// The real traces are not redistributable, so each Profile encodes the
// structural properties LeaFTL's learning responds to — read/write mix,
// sequential-run fraction and length, strided access fraction, request
// sizes, footprint, and hot-spot skew — with values chosen to match the
// published characterizations of each trace. Absolute numbers shift,
// but the relative behaviours (which workloads learn long segments,
// which degrade to single points) are preserved.
package workload

import (
	"fmt"
	"math/rand"

	"leaftl/internal/addr"
	"leaftl/internal/trace"
)

// Profile parameterizes one synthetic workload.
type Profile struct {
	// Name identifies the workload in reports ("MSR-hm", "TPCC", ...).
	Name string
	// Class is "trace" for MSR/FIU block traces (simulator runs) or
	// "app" for the prototype's application workloads.
	Class string

	// ReadFrac is the fraction of requests that are reads.
	ReadFrac float64

	// SeqFrac of requests continue a sequential stream; StrideFrac are
	// strided bursts; the remainder are random point accesses.
	SeqFrac    float64
	StrideFrac float64
	// Stride is the LPA step of strided bursts (pages).
	Stride int
	// StrideBurst is how many accesses one strided burst issues.
	StrideBurst int

	// MinPages/MaxPages bound request sizes (pages).
	MinPages, MaxPages int

	// HotFrac of random accesses fall into the first HotSpace fraction
	// of the footprint (skew).
	HotFrac, HotSpace float64

	// FootprintFrac is the touched fraction of the device's logical
	// space.
	FootprintFrac float64
}

// Validate reports malformed profiles.
func (p Profile) Validate() error {
	switch {
	case p.ReadFrac < 0 || p.ReadFrac > 1:
		return fmt.Errorf("workload %s: ReadFrac %v", p.Name, p.ReadFrac)
	case p.SeqFrac < 0 || p.StrideFrac < 0 || p.SeqFrac+p.StrideFrac > 1:
		return fmt.Errorf("workload %s: pattern fractions %v+%v", p.Name, p.SeqFrac, p.StrideFrac)
	case p.MinPages < 1 || p.MaxPages < p.MinPages:
		return fmt.Errorf("workload %s: request size [%d,%d]", p.Name, p.MinPages, p.MaxPages)
	case p.FootprintFrac <= 0 || p.FootprintFrac > 1:
		return fmt.Errorf("workload %s: FootprintFrac %v", p.Name, p.FootprintFrac)
	}
	return nil
}

// Catalog returns the trace-style workloads of the simulator evaluation
// (§4.1). Parameter choices follow the published characterizations:
// prxy/prn/hm are write-dominant with small requests; usr and src2 read
// more with longer sequential runs; the FIU traces are write-heavy with
// strong locality.
func Catalog() []Profile {
	return []Profile{
		{Name: "MSR-hm", Class: "trace", ReadFrac: 0.35, SeqFrac: 0.25, StrideFrac: 0.30,
			Stride: 4, StrideBurst: 24, MinPages: 1, MaxPages: 8, HotFrac: 0.7, HotSpace: 0.15, FootprintFrac: 0.45},
		{Name: "MSR-src2", Class: "trace", ReadFrac: 0.25, SeqFrac: 0.45, StrideFrac: 0.20,
			Stride: 2, StrideBurst: 24, MinPages: 1, MaxPages: 16, HotFrac: 0.6, HotSpace: 0.1, FootprintFrac: 0.4},
		{Name: "MSR-prxy", Class: "trace", ReadFrac: 0.05, SeqFrac: 0.10, StrideFrac: 0.45,
			Stride: 3, StrideBurst: 32, MinPages: 1, MaxPages: 4, HotFrac: 0.85, HotSpace: 0.08, FootprintFrac: 0.3},
		{Name: "MSR-prn", Class: "trace", ReadFrac: 0.11, SeqFrac: 0.55, StrideFrac: 0.15,
			Stride: 2, StrideBurst: 16, MinPages: 2, MaxPages: 32, HotFrac: 0.5, HotSpace: 0.2, FootprintFrac: 0.55},
		{Name: "MSR-usr", Class: "trace", ReadFrac: 0.60, SeqFrac: 0.60, StrideFrac: 0.10,
			Stride: 2, StrideBurst: 16, MinPages: 2, MaxPages: 32, HotFrac: 0.5, HotSpace: 0.25, FootprintFrac: 0.6},
		{Name: "FIU-home", Class: "trace", ReadFrac: 0.01, SeqFrac: 0.30, StrideFrac: 0.35,
			Stride: 2, StrideBurst: 24, MinPages: 1, MaxPages: 8, HotFrac: 0.75, HotSpace: 0.1, FootprintFrac: 0.35},
		{Name: "FIU-mail", Class: "trace", ReadFrac: 0.08, SeqFrac: 0.15, StrideFrac: 0.40,
			Stride: 4, StrideBurst: 24, MinPages: 1, MaxPages: 4, HotFrac: 0.9, HotSpace: 0.05, FootprintFrac: 0.3},
	}
}

// AppCatalog returns the application workloads run on the prototype
// (Table 2): filesystem benchmarks (OLTP, CompFlow) and BenchBase
// databases (TPCC, AuctionMark, SEATS).
func AppCatalog() []Profile {
	return []Profile{
		{Name: "SEATS", Class: "app", ReadFrac: 0.75, SeqFrac: 0.10, StrideFrac: 0.35,
			Stride: 2, StrideBurst: 16, MinPages: 1, MaxPages: 4, HotFrac: 0.8, HotSpace: 0.1, FootprintFrac: 0.4},
		{Name: "AMark", Class: "app", ReadFrac: 0.55, SeqFrac: 0.15, StrideFrac: 0.35,
			Stride: 3, StrideBurst: 16, MinPages: 1, MaxPages: 4, HotFrac: 0.85, HotSpace: 0.08, FootprintFrac: 0.4},
		{Name: "TPCC", Class: "app", ReadFrac: 0.35, SeqFrac: 0.30, StrideFrac: 0.25,
			Stride: 2, StrideBurst: 16, MinPages: 1, MaxPages: 8, HotFrac: 0.8, HotSpace: 0.12, FootprintFrac: 0.5},
		{Name: "OLTP", Class: "app", ReadFrac: 0.50, SeqFrac: 0.20, StrideFrac: 0.25,
			Stride: 2, StrideBurst: 16, MinPages: 1, MaxPages: 8, HotFrac: 0.7, HotSpace: 0.15, FootprintFrac: 0.45},
		{Name: "CompF", Class: "app", ReadFrac: 0.45, SeqFrac: 0.75, StrideFrac: 0.05,
			Stride: 2, StrideBurst: 8, MinPages: 4, MaxPages: 64, HotFrac: 0.4, HotSpace: 0.3, FootprintFrac: 0.6},
	}
}

// ByName finds a profile in either catalog.
func ByName(name string) (Profile, bool) {
	for _, p := range append(Catalog(), AppCatalog()...) {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Generate produces n requests over a device with the given logical page
// count, deterministically from seed.
func (p Profile) Generate(logicalPages, n int, seed int64) []trace.Request {
	if err := p.Validate(); err != nil {
		panic(err) // profiles are compile-time constants; fail loudly
	}
	rng := rand.New(rand.NewSource(seed))
	footprint := int(float64(logicalPages) * p.FootprintFrac)
	if footprint < 256 {
		footprint = 256
	}
	if footprint > logicalPages {
		footprint = logicalPages
	}
	hot := int(float64(footprint) * p.HotSpace)
	if hot < 1 {
		hot = 1
	}

	reqs := make([]trace.Request, 0, n)
	seqCursor := rng.Intn(footprint)

	randLPA := func() int {
		if rng.Float64() < p.HotFrac {
			return rng.Intn(hot)
		}
		return hot + rng.Intn(footprint-hot)
	}
	size := func() int {
		return p.MinPages + rng.Intn(p.MaxPages-p.MinPages+1)
	}
	op := func() trace.Op {
		if rng.Float64() < p.ReadFrac {
			return trace.OpRead
		}
		return trace.OpWrite
	}

	for len(reqs) < n {
		r := rng.Float64()
		switch {
		case r < p.SeqFrac:
			// Continue (or restart) a sequential stream.
			sz := size()
			if seqCursor+sz >= footprint || rng.Float64() < 0.02 {
				seqCursor = randLPA()
			}
			if seqCursor+sz >= footprint {
				seqCursor = 0
			}
			reqs = append(reqs, trace.Request{Op: op(), LPA: addr.LPA(seqCursor), Pages: sz})
			seqCursor += sz
		case r < p.SeqFrac+p.StrideFrac:
			// Strided burst: fixed stride, single-page accesses.
			base := randLPA()
			o := op()
			for i := 0; i < p.StrideBurst && len(reqs) < n; i++ {
				l := base + i*p.Stride
				if l >= footprint {
					break
				}
				reqs = append(reqs, trace.Request{Op: o, LPA: addr.LPA(l), Pages: 1})
			}
		default:
			// Random point access with hot-spot skew.
			sz := size()
			l := randLPA()
			if l+sz > footprint {
				l = footprint - sz
			}
			reqs = append(reqs, trace.Request{Op: op(), LPA: addr.LPA(l), Pages: sz})
		}
	}
	return reqs[:n]
}

// Footprint returns the number of distinct pages the profile touches on
// a device with the given logical capacity.
func (p Profile) Footprint(logicalPages int) int {
	f := int(float64(logicalPages) * p.FootprintFrac)
	if f < 256 {
		f = 256
	}
	if f > logicalPages {
		f = logicalPages
	}
	return f
}
