package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"leaftl/internal/addr"
	"leaftl/internal/plr"
)

func mappings(start addr.LPA, stride uint32, ppa addr.PPA, n int) []addr.Mapping {
	out := make([]addr.Mapping, n)
	for i := 0; i < n; i++ {
		out[i] = addr.Mapping{LPA: start + addr.LPA(uint32(i)*stride), PPA: ppa + addr.PPA(i)}
	}
	return out
}

// TestSegmentSize pins the in-memory segment at 32 bytes: every group's
// segment array, and every segment copy the mutation path makes, scales
// with it. A field added or reordered so that padding grows fails here.
func TestSegmentSize(t *testing.T) {
	if got := unsafe.Sizeof(Segment{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Segment{}) = %d, want 32", got)
	}
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	ls := Learn(mappings(1000, 2, 5000, 20), 0)
	if len(ls) == 0 {
		t.Fatal("no segments learned")
	}
	for _, l := range ls {
		s := l.Seg
		b := s.Encode()
		got := DecodeSegment(b, s.Group())
		if got != s {
			t.Errorf("round trip: got %v, want %v", got, s)
		}
	}
}

func TestLearnSequentialIsOneAccurateSegment(t *testing.T) {
	// Paper Figure 1 A: one group-aligned sequential run.
	ls := Learn(mappings(512, 1, 9000, 256), 0)
	if len(ls) != 1 {
		t.Fatalf("learned %d segments, want 1: %v", len(ls), ls)
	}
	s := ls[0].Seg
	if !s.Accurate() {
		t.Error("sequential segment should be accurate")
	}
	if s.L != 255 {
		t.Errorf("L = %d, want 255", s.L)
	}
	for i, m := range mappings(512, 1, 9000, 256) {
		if got := s.Predict(m.LPA); got != m.PPA {
			t.Fatalf("entry %d: Predict(%d) = %d, want %d", i, m.LPA, got, m.PPA)
		}
	}
}

func TestLearnSplitsAtGroupBoundary(t *testing.T) {
	// 300 sequential pages starting mid-group must split at LPA 256.
	ls := Learn(mappings(200, 1, 0, 300), 0)
	if len(ls) != 2 {
		t.Fatalf("learned %d segments, want 2", len(ls))
	}
	if g0, g1 := ls[0].Seg.Group(), ls[1].Seg.Group(); g0 == g1 {
		t.Errorf("both segments in group %d", g0)
	}
}

func TestLearnStridedAccurate(t *testing.T) {
	// Paper Figure 1 B: stride-2 LPAs onto consecutive PPAs.
	ls := Learn(mappings(0, 2, 200, 100), 0)
	if len(ls) != 1 {
		t.Fatalf("learned %d segments, want 1", len(ls))
	}
	s := ls[0].Seg
	if !s.Accurate() || s.Stride() != 2 {
		t.Fatalf("segment %v: want accurate stride 2", s)
	}
	if got := s.Predict(198); got != 299 {
		t.Errorf("Predict(198) = %d, want 299", got)
	}
}

func TestLearnSinglePoints(t *testing.T) {
	pairs := []addr.Mapping{{LPA: 10, PPA: 999}, {LPA: 90, PPA: 5}, {LPA: 130, PPA: 77777}}
	ls := Learn(pairs, 0)
	if len(ls) != 3 {
		t.Fatalf("learned %d segments, want 3 singletons", len(ls))
	}
	for i, l := range ls {
		s := l.Seg
		if s.L != 0 || !s.Accurate() {
			t.Errorf("segment %d = %v, want single-point accurate", i, s)
		}
		if got := s.Predict(pairs[i].LPA); got != pairs[i].PPA {
			t.Errorf("Predict(%d) = %d, want %d", pairs[i].LPA, got, pairs[i].PPA)
		}
	}
}

func TestLearnIrregularApproximate(t *testing.T) {
	// Paper Figure 1 C / Figure 6: irregular LPAs to consecutive PPAs,
	// learnable as one approximate segment with gamma ≥ 1.
	lpas := []addr.LPA{0, 1, 4, 5}
	pairs := make([]addr.Mapping, len(lpas))
	for i, l := range lpas {
		pairs[i] = addr.Mapping{LPA: l, PPA: addr.PPA(64 + i)}
	}
	ls := Learn(pairs, 1)
	if len(ls) != 1 {
		t.Fatalf("learned %d segments, want 1", len(ls))
	}
	l := ls[0]
	if l.Seg.Accurate() {
		t.Error("irregular segment should be approximate")
	}
	if len(l.LPAs) != 4 {
		t.Errorf("LPAs = %v", l.LPAs)
	}
	for i, lpa := range lpas {
		d := int64(l.Seg.Predict(lpa)) - int64(64+i)
		if d < -1 || d > 1 {
			t.Errorf("LPA %d prediction off by %d, beyond gamma=1", lpa, d)
		}
	}
}

func TestLearnExactButIrregularStrideIsApproximate(t *testing.T) {
	// Points exactly on a line but with irregular x-strides cannot be an
	// accurate segment (the stride membership test would misfire); they
	// must come out approximate even though predictions are exact.
	pairs := []addr.Mapping{
		{LPA: 0, PPA: 100}, {LPA: 2, PPA: 101}, {LPA: 4, PPA: 102}, {LPA: 8, PPA: 104},
	}
	ls := Learn(pairs, 4)
	for _, l := range ls {
		if l.Seg.Accurate() && l.Seg.L > 0 {
			st := l.Seg.Stride()
			for _, lpa := range l.LPAs {
				if uint32(lpa-l.Seg.SLPA)%st != 0 {
					t.Fatalf("accurate segment %v contains off-stride LPA %d", l.Seg, lpa)
				}
			}
		}
	}
}

// Property: for random sorted batches, learned segments (a) cover every
// input mapping exactly once, (b) respect the error bound with the
// quantized slope, and (c) accurate segments predict exactly.
func TestPropertyLearnBound(t *testing.T) {
	check := func(seed int64, gsel uint8) bool {
		gamma := int(gsel % 3 * 4) // 0, 4, 8
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		pairs := make([]addr.Mapping, 0, n)
		lpa := addr.LPA(rng.Intn(1000))
		ppa := addr.PPA(rng.Intn(100000))
		for i := 0; i < n; i++ {
			lpa += addr.LPA(1 + rng.Intn(5))
			if rng.Intn(6) == 0 {
				ppa = addr.PPA(rng.Intn(1 << 24))
			} else {
				ppa++
			}
			pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: ppa})
		}
		ls := Learn(pairs, gamma)

		covered := make(map[addr.LPA]Segment, n)
		for _, l := range ls {
			if len(l.LPAs) == 0 {
				return false
			}
			if l.Seg.SLPA != l.LPAs[0] || l.Seg.End() != l.LPAs[len(l.LPAs)-1] {
				return false
			}
			for _, lp := range l.LPAs {
				if _, dup := covered[lp]; dup {
					return false
				}
				covered[lp] = l.Seg
			}
		}
		if len(covered) != len(pairs) {
			return false
		}
		for _, m := range pairs {
			s, ok := covered[m.LPA]
			if !ok {
				return false
			}
			d := int64(s.Predict(m.LPA)) - int64(m.PPA)
			if s.Accurate() && d != 0 {
				return false
			}
			if d < -int64(gamma) || d > int64(gamma) {
				return false
			}
			if s.Accurate() && uint32(m.LPA-s.SLPA)%s.Stride() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestSegmentOverlaps(t *testing.T) {
	a := Segment{SLPA: 10, L: 5}
	cases := []struct {
		b    Segment
		want bool
	}{
		{Segment{SLPA: 0, L: 9}, false},
		{Segment{SLPA: 0, L: 10}, true},
		{Segment{SLPA: 15, L: 0}, true},
		{Segment{SLPA: 16, L: 3}, false},
		{Segment{SLPA: 12, L: 1}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v", c.b)
		}
	}
}

// TestFitExactMatchesCone: the integer γ = 0 fitter returns the cone
// fitter's segments bit for bit on one group's points, over strided,
// collinear-but-gapped, decreasing and far-jumping PPAs.
func TestFitExactMatchesCone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		var pts []plr.Point
		x, y := int64(rng.Intn(8)), int64(rng.Intn(1<<30))
		for x < addr.GroupSize {
			pts = append(pts, plr.Point{X: x, Y: y})
			x += int64(1 + rng.Intn(1+rng.Intn(6)))
			switch r := rng.Intn(10); {
			case r < 5:
				y++
			case r < 7:
				y += int64(rng.Intn(4))
			case r < 8:
				y -= int64(rng.Intn(3))
			default:
				y += int64(rng.Intn(1 << 31))
			}
		}
		want := plr.FitAppend(nil, pts, 0, 0, 1, addr.GroupSize-1)
		if got := fitExact(nil, pts); !reflect.DeepEqual(got, want) {
			t.Fatalf("points %v:\n got %v\nwant %v", pts, got, want)
		}
	}
}
