// Package plr implements greedy maximum-error-bounded piecewise linear
// regression, the learning primitive of LeaFTL (paper §3.2, citing Xie et
// al., "Maximum error-bounded piecewise linear representation for online
// stream approximation", VLDB J. 2014).
//
// Points arrive in strictly increasing x order (the SSD controller sorts
// buffered pages by LPA before a flush, paper §3.3). The fitter maintains
// the cone of slopes that keep every accepted point within ±gamma of the
// line anchored at the segment's first point; a point that empties the
// cone closes the current segment and starts a new one. With gamma = 0
// this degenerates to exact collinearity, producing the paper's "accurate"
// segments.
//
// The anchored-cone variant is not the optimal-segment-count algorithm,
// but it guarantees the error bound, runs in O(1) per point, and is what
// an SSD firmware implementation would realistically ship; LeaFTL's own
// artifact uses the same greedy scheme.
package plr

import "math"

// Point is one (x, y) observation. For LeaFTL x is an LPA (or an LPA
// offset within a segment group) and y is the mapped PPA.
type Point struct {
	X, Y int64
}

// Segment is one fitted line y ≈ K*x + B covering the points from FirstX
// to LastX inclusive. Every covered point satisfies |K*x + B - y| ≤ gamma.
type Segment struct {
	FirstX, LastX int64
	K, B          float64
	N             int // number of points covered
}

// Predict evaluates the fitted line at x, rounding up as LeaFTL does
// (PPA = ⌈K·x + I⌉, paper §3.2).
func (s Segment) Predict(x int64) int64 {
	return int64(math.Ceil(s.K*float64(x) + s.B))
}

// fitter incrementally builds error-bounded segments for FitAppend.
type fitter struct {
	gamma float64
	// Slope cone constraints, intersected over all accepted points:
	// slopes in [lo, hi] keep every point within ±gamma of the line
	// through the anchor (x0, y0).
	lo, hi float64
	// Optional hard slope clamp (LeaFTL requires K ∈ [0, 1], §3.2).
	minSlope, maxSlope float64
	// Maximum x-span of one segment (LeaFTL: 255, so S+L fits a group).
	maxSpan int64

	open   bool
	x0, y0 int64 // anchor: first point of the open segment
	xn, yn int64 // last accepted point
	n      int
}

// add feeds the next point. If the point does not fit the open segment,
// that segment is closed and returned with closed = true, and a new
// segment is opened at the point.
func (f *fitter) add(x, y int64) (s Segment, closed bool) {
	if !f.open {
		f.start(x, y)
		return Segment{}, false
	}
	if x <= f.xn {
		// Duplicate or regressing x cannot extend a function fit; close.
		s := f.closeSegment()
		f.start(x, y)
		return s, true
	}
	if f.maxSpan > 0 && x-f.x0 > f.maxSpan {
		s := f.closeSegment()
		f.start(x, y)
		return s, true
	}

	dx := float64(x - f.x0)
	dy := float64(y - f.y0)
	lo := (dy - f.gamma) / dx
	hi := (dy + f.gamma) / dx
	nlo := math.Max(f.lo, lo)
	nhi := math.Min(f.hi, hi)
	if nlo > nhi {
		s := f.closeSegment()
		f.start(x, y)
		return s, true
	}
	f.lo, f.hi = nlo, nhi
	f.xn, f.yn = x, y
	f.n++
	return Segment{}, false
}

func (f *fitter) start(x, y int64) {
	f.open = true
	f.x0, f.y0 = x, y
	f.xn, f.yn = x, y
	f.lo, f.hi = f.minSlope, f.maxSlope
	f.n = 1
}

func (f *fitter) closeSegment() Segment {
	f.open = false
	if f.n == 1 {
		// Single point: LeaFTL encodes these as K=0, I=PPA (paper §3.1).
		return Segment{FirstX: f.x0, LastX: f.x0, K: 0, B: float64(f.y0), N: 1}
	}
	// Any slope inside the final cone satisfies the bound; the midpoint
	// maximizes slack on both sides against later quantization.
	k := (f.lo + f.hi) / 2
	if f.gamma == 0 {
		// Exact fit: the cone has collapsed to the true slope; avoid
		// midpoint FP noise by recomputing from the endpoints.
		k = float64(f.yn-f.y0) / float64(f.xn-f.x0)
	}
	return Segment{
		FirstX: f.x0,
		LastX:  f.xn,
		K:      k,
		B:      float64(f.y0) - k*float64(f.x0),
		N:      f.n,
	}
}

// FitAppend runs the greedy fitter over points (x strictly increasing)
// with error bound gamma ≥ 0, slope clamped to [minSlope, maxSlope] and
// segment x-span limited to maxSpan (0 = no limit), and appends the
// resulting segments in order to dst, so hot callers can reuse one
// segment buffer across fits. The fitter lives on the stack: a full fit
// performs no allocations beyond growing dst.
func FitAppend(dst []Segment, points []Point, gamma float64, minSlope, maxSlope float64, maxSpan int64) []Segment {
	if gamma < 0 {
		gamma = 0
	}
	if maxSlope < minSlope {
		minSlope, maxSlope = maxSlope, minSlope
	}
	f := fitter{gamma: gamma, minSlope: minSlope, maxSlope: maxSlope, maxSpan: maxSpan}
	for _, p := range points {
		if s, closed := f.add(p.X, p.Y); closed {
			dst = append(dst, s)
		}
	}
	if f.open {
		dst = append(dst, f.closeSegment())
	}
	return dst
}
