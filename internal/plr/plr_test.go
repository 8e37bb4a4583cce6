package plr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func fitAll(points []Point, gamma float64) []Segment {
	return FitAppend(nil, points, gamma, 0, 1, 255)
}

func TestSinglePoint(t *testing.T) {
	segs := fitAll([]Point{{X: 7, Y: 42}}, 0)
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	s := segs[0]
	if s.K != 0 || s.B != 42 || s.N != 1 || s.FirstX != 7 || s.LastX != 7 {
		t.Errorf("single-point segment = %+v", s)
	}
	if s.Predict(7) != 42 {
		t.Errorf("Predict(7) = %d, want 42", s.Predict(7))
	}
}

func TestExactSequential(t *testing.T) {
	// Paper Figure 1 pattern A: contiguous LPAs, contiguous PPAs.
	var pts []Point
	for i := int64(0); i < 100; i++ {
		pts = append(pts, Point{X: 30 + i, Y: 155 + i})
	}
	segs := fitAll(pts, 0)
	if len(segs) != 1 {
		t.Fatalf("sequential run split into %d segments", len(segs))
	}
	s := segs[0]
	if s.N != 100 {
		t.Errorf("N = %d, want 100", s.N)
	}
	for _, p := range pts {
		if got := s.Predict(p.X); got != p.Y {
			t.Fatalf("Predict(%d) = %d, want %d", p.X, got, p.Y)
		}
	}
}

func TestExactStrided(t *testing.T) {
	// Paper Figure 1 pattern B: LPAs 60,62,64,... PPAs 200,201,202,...
	var pts []Point
	for i := int64(0); i < 50; i++ {
		pts = append(pts, Point{X: 60 + 2*i, Y: 200 + i})
	}
	segs := fitAll(pts, 0)
	if len(segs) != 1 {
		t.Fatalf("strided run split into %d segments", len(segs))
	}
	if k := segs[0].K; math.Abs(k-0.5) > 1e-12 {
		t.Errorf("K = %v, want 0.5", k)
	}
	for _, p := range pts {
		if got := segs[0].Predict(p.X); got != p.Y {
			t.Fatalf("Predict(%d) = %d, want %d", p.X, got, p.Y)
		}
	}
}

func TestIrregularWithinGamma(t *testing.T) {
	// Paper Figure 1 pattern C: irregular strides learned as one
	// approximate segment when gamma is large enough.
	xs := []int64{80, 82, 83, 84, 87}
	ys := []int64{304, 305, 306, 307, 308}
	var pts []Point
	for i := range xs {
		pts = append(pts, Point{X: xs[i], Y: ys[i]})
	}
	segs := fitAll(pts, 2)
	if len(segs) != 1 {
		t.Fatalf("irregular run with gamma=2 split into %d segments", len(segs))
	}
	for i := range xs {
		pred := segs[0].K*float64(xs[i]) + segs[0].B
		if d := math.Abs(pred - float64(ys[i])); d > 2+1e-9 {
			t.Errorf("point %d: |error| = %v > gamma", i, d)
		}
	}
	// With gamma = 0 the same run must split.
	if n := len(fitAll(pts, 0)); n < 2 {
		t.Errorf("gamma=0 fit produced %d segments, want >1", n)
	}
}

func TestRandomPointsBecomeSingletons(t *testing.T) {
	// Worst case (paper §3.1): random mappings degrade to single-point
	// segments, never exceeding one segment per mapping.
	rng := rand.New(rand.NewSource(1))
	var pts []Point
	x := int64(0)
	for i := 0; i < 200; i++ {
		x += 1 + rng.Int63n(3)
		pts = append(pts, Point{X: x, Y: rng.Int63n(1 << 30)})
	}
	segs := fitAll(pts, 0)
	if len(segs) > len(pts) {
		t.Fatalf("%d segments for %d points", len(segs), len(pts))
	}
	total := 0
	for _, s := range segs {
		total += s.N
	}
	if total != len(pts) {
		t.Errorf("segments cover %d points, want %d", total, len(pts))
	}
}

func TestMaxSpanSplits(t *testing.T) {
	var pts []Point
	for i := int64(0); i < 600; i++ {
		pts = append(pts, Point{X: i, Y: i})
	}
	segs := FitAppend(nil, pts, 0, 0, 1, 255)
	for _, s := range segs {
		if s.LastX-s.FirstX > 255 {
			t.Fatalf("segment span %d exceeds 255", s.LastX-s.FirstX)
		}
	}
	if len(segs) != 3 {
		t.Errorf("600 sequential points with span 255 gave %d segments, want 3", len(segs))
	}
}

func TestDuplicateXCloses(t *testing.T) {
	pts := []Point{{0, 10}, {1, 11}, {1, 99}, {2, 100}}
	segs := fitAll(pts, 4)
	if len(segs) < 2 {
		t.Fatalf("duplicate x did not split: %d segments", len(segs))
	}
}

func TestSlopeClamp(t *testing.T) {
	// Slope 2 exceeds the [0,1] clamp, so each pair must split.
	pts := []Point{{0, 0}, {1, 2}, {2, 4}}
	segs := fitAll(pts, 0)
	if len(segs) != 3 {
		t.Fatalf("slope-2 run with clamp [0,1] gave %d segments, want 3", len(segs))
	}
}

// Property: every fitted segment respects the error bound on every point it
// covers, and segments partition the input in order.
func TestPropertyErrorBound(t *testing.T) {
	check := func(seed int64, gammaSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gamma := float64(gammaSel % 17)
		n := 1 + rng.Intn(300)
		pts := make([]Point, 0, n)
		x := int64(rng.Intn(100))
		y := int64(rng.Intn(1000))
		for i := 0; i < n; i++ {
			x += 1 + int64(rng.Intn(4))
			// Mix of sequential-ish and jumpy y to exercise both paths.
			if rng.Intn(4) == 0 {
				y = int64(rng.Intn(1 << 20))
			} else {
				y += 1
			}
			pts = append(pts, Point{X: x, Y: y})
		}
		segs := FitAppend(nil, pts, gamma, 0, 1, 255)

		// 1. Partition: concatenated point counts equal input length and
		//    segment x-ranges are ordered and disjoint.
		total := 0
		lastX := int64(math.MinInt64)
		for _, s := range segs {
			total += s.N
			if s.FirstX <= lastX {
				return false
			}
			if s.LastX < s.FirstX {
				return false
			}
			lastX = s.LastX
		}
		if total != len(pts) {
			return false
		}

		// 2. Error bound on each covered point.
		si := 0
		for _, p := range pts {
			for p.X > segs[si].LastX {
				si++
			}
			s := segs[si]
			if p.X < s.FirstX {
				return false
			}
			pred := s.K*float64(p.X) + s.B
			if math.Abs(pred-float64(p.Y)) > gamma+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a larger gamma never produces more segments than a smaller one
// on the same input (monotone relaxation, paper Figure 5).
func TestPropertyGammaMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		pts := make([]Point, 0, n)
		x := int64(0)
		y := int64(0)
		for i := 0; i < n; i++ {
			x += 1 + int64(rng.Intn(3))
			y += int64(rng.Intn(3))
			pts = append(pts, Point{X: x, Y: y})
		}
		prev := math.MaxInt32
		for _, g := range []float64{0, 1, 4, 16} {
			cur := len(FitAppend(nil, pts, g, 0, 1, 255))
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
