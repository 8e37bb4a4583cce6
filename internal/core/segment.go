package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"leaftl/internal/addr"
	"leaftl/internal/float16"
	"leaftl/internal/plr"
)

// SegmentBytes is the encoded size of one learned index segment: 1 byte
// starting-LPA offset, 1 byte length, 2 bytes slope, 4 bytes intercept
// (paper Figure 6).
const SegmentBytes = 8

// Segment is one learned index segment. It covers the LPA interval
// [SLPA, SLPA+L] inside a single 256-LPA group and predicts
// PPA = ⌈K·x + I⌉ where x is the LPA's offset within the group.
//
// The paper writes the model against the absolute LPA; anchoring at the
// group base is the same line reparameterized, and keeps the intercept
// within its 4-byte budget for arbitrarily large drives.
//
// kf, stride, p0 and primed are a decoded cache, filled by prime. They
// are not part of the 8-byte wire format (Encode/DecodeSegment are
// unchanged); every one is a pure function of (SLPA, L, K, I), so a
// learned segment and its encode/decode round trip stay ==-comparable.
// With the cache hot, the lookup path for accurate segments is pure
// integer arithmetic — no float16 decode, no math.Round(1/K) stride
// recomputation, no math.Ceil. The fields are ordered widest first, so a
// Segment is 28 bytes padded to 32.
type Segment struct {
	kf     float64      // cache: float16.To64(K)
	SLPA   addr.LPA     // absolute first LPA (its group is implied)
	I      float32      // intercept, in group-offset space
	stride uint32       // cache: round(1/kf) for accurate segments, ≥ 1
	p0     addr.PPA     // cache: prediction at SLPA (fast-path anchor)
	K      float16.Bits // slope; LSB is the type flag (0 accurate, 1 approximate)
	L      uint8        // span: the segment covers [SLPA, SLPA+L]
	primed bool         // cache: filled
}

// prime fills the decoded cache. It must be called whenever a segment
// enters the table or its SLPA/L are edited (trims move the prediction
// anchor). Idempotent and cheap; the table maintains the invariant that
// every resident segment is primed.
func (s *Segment) prime() {
	s.kf = float16.To64(s.K)
	s.stride = strideOf(s.kf)
	s.p0 = predictAt(s.kf, s.I, int64(s.Start()))
	s.primed = true
}

// strideOf is the LPA step an accurate segment with decoded slope k
// encodes: round(1/k), at least 1.
func strideOf(k float64) uint32 {
	if k > 0 {
		if r := uint32(math.Round(1 / k)); r > 0 {
			return r
		}
	}
	return 1
}

// cut narrows a primed segment to the offsets [first, last] of its group
// (base), both LPAs it answers. K and I are untouched, so every surviving
// prediction stands; only the anchor of the decoded cache moves, to what
// prime would recompute (an accurate segment's predictions advance one
// page per stride step).
func (s *Segment) cut(base addr.LPA, first, last uint8) {
	if d := uint32(first - s.Start()); d != 0 {
		if s.Accurate() {
			s.p0 += addr.PPA(d / s.stride)
		} else {
			s.p0 = s.predictApprox(first)
		}
		s.SLPA = base + addr.LPA(first)
	}
	s.L = last - first
}

// Accurate reports whether the segment guarantees exact translations.
// Approximate segments may err by at most ±gamma (paper §3.2).
func (s Segment) Accurate() bool { return !s.K.Flag() }

// Group returns the 256-LPA group the segment belongs to.
func (s Segment) Group() addr.GroupID { return addr.Group(s.SLPA) }

// Start returns the segment's first LPA offset within its group.
func (s Segment) Start() uint8 { return addr.Offset(s.SLPA) }

// End returns the segment's last covered LPA.
func (s Segment) End() addr.LPA { return s.SLPA + addr.LPA(s.L) }

// Contains reports whether lpa falls in the segment's covered range.
// Range membership is necessary but not sufficient: accurate segments
// additionally require the LPA to sit on the segment's stride, and
// approximate segments consult the CRB (see has_lpa, Algorithm 2).
func (s Segment) Contains(lpa addr.LPA) bool {
	return lpa >= s.SLPA && lpa <= s.End()
}

// Overlaps reports whether the two segments' LPA ranges intersect.
func (s Segment) Overlaps(o Segment) bool {
	return s.SLPA <= o.End() && o.SLPA <= s.End()
}

// Stride returns the LPA step between consecutive mappings encoded by an
// accurate segment: round(1/K) (Algorithm 2 tests
// (lpa−S) mod ⌈1/K⌉ = 0). Single-point segments report stride 1.
func (s Segment) Stride() uint32 {
	if s.primed {
		return s.stride
	}
	return strideOf(float16.To64(s.K))
}

// Predict returns the segment's PPA prediction for lpa. For accurate
// segments the result is exact; for approximate segments it is within
// ±gamma of the true PPA (guaranteed at learning time).
//
// Primed accurate segments answer covered on-stride LPAs with pure
// integer arithmetic: learning verified that the segment's points form an
// arithmetic LPA progression mapped to consecutive PPAs, so the anchored
// prediction p0 + (lpa−SLPA)/stride equals ⌈K·x + I⌉ on every covered
// point, and trims only shrink the covered set.
func (s Segment) Predict(lpa addr.LPA) addr.PPA {
	if s.primed {
		if !s.K.Flag() && lpa >= s.SLPA && lpa <= s.End() {
			if d := uint32(lpa - s.SLPA); d%s.stride == 0 {
				return s.p0 + addr.PPA(d/s.stride)
			}
		}
		return s.predictApprox(addr.Offset(lpa))
	}
	return predictAt(float16.To64(s.K), s.I, int64(addr.Offset(lpa)))
}

// predictApprox evaluates the line with the cached float slope (primed
// segments only) — one multiply and a ceil, no float16 decode.
func (s *Segment) predictApprox(off uint8) addr.PPA {
	return predictAt(s.kf, s.I, int64(off))
}

// Encode packs the segment into its 8-byte on-flash representation
// (paper Figure 6). The group ID is carried externally (translation pages
// are organized per group).
func (s Segment) Encode() [SegmentBytes]byte {
	var b [SegmentBytes]byte
	b[0] = s.Start()
	b[1] = s.L
	binary.LittleEndian.PutUint16(b[2:4], uint16(s.K))
	binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(s.I))
	return b
}

// DecodeSegment unpacks an 8-byte segment belonging to group g. The
// decoded cache is primed, so decoded segments are ready for the fast
// lookup path (and == their in-memory originals).
func DecodeSegment(b [SegmentBytes]byte, g addr.GroupID) Segment {
	s := Segment{
		SLPA: addr.GroupBase(g) + addr.LPA(b[0]),
		L:    b[1],
		K:    float16.Bits(binary.LittleEndian.Uint16(b[2:4])),
		I:    math.Float32frombits(binary.LittleEndian.Uint32(b[4:8])),
	}
	s.prime()
	return s
}

// String renders the segment like the paper's figures: [S, S+L] with its
// type, slope and intercept.
func (s Segment) String() string {
	typ := "acc"
	if !s.Accurate() {
		typ = "apx"
	}
	return fmt.Sprintf("[%d,%d]%s K=%.4f I=%.1f", s.SLPA, s.End(), typ, float16.To64(s.K), s.I)
}

// Learned couples a fitted segment with the exact LPA set it indexes.
// The LPA list feeds the CRB for approximate segments and the bitmap
// merge for both kinds; it is discarded after insertion.
type Learned struct {
	Seg  Segment
	LPAs []addr.LPA     // sorted ascending
	miss []addr.Mapping // the pairs a fitted approximate segment mispredicts, LPA-sorted
}

// Learn fits error-bounded segments over a batch of LPA→PPA mappings
// (paper §3.7 "Creation of Learned Segments"). pairs must be sorted by
// LPA with unique LPAs — the SSD data buffer guarantees both (§3.3).
// gamma is the error bound in pages; gamma = 0 yields only accurate and
// single-point segments.
//
// Fitting is per 256-LPA group (a segment never crosses a group
// boundary), with slope clamped to [0, 1] as the encoding requires. After
// fitting, each segment is re-verified with its *quantized* (float16,
// flag-bearing) slope; a segment that no longer meets its bound is split.
func Learn(pairs []addr.Mapping, gamma int) []Learned {
	var b learnBuf
	return b.learn(pairs, gamma)
}

// learnBuf holds the reusable scratch behind Learn: the output slice, the
// per-group point buffer, the fitted-segment buffer, and the arenas that
// back every Learned.LPAs and Learned.miss of a batch. Table.Update owns
// one and reuses it across batches, so steady-state learning costs
// amortized O(1) allocations; results of a learn call are valid until
// the next call on the same buffer.
type learnBuf struct {
	out       []Learned
	pts       []plr.Point
	segs      []plr.Segment
	refitSegs []plr.Segment
	arena     []addr.LPA
	miss      []addr.Mapping
}

func (b *learnBuf) learn(pairs []addr.Mapping, gamma int) []Learned {
	if len(pairs) == 0 {
		return nil
	}
	b.out = b.out[:0]
	b.arena, b.miss = b.arena[:0], b.miss[:0]
	i := 0
	for i < len(pairs) {
		g := addr.Group(pairs[i].LPA)
		j := i
		for j < len(pairs) && addr.Group(pairs[j].LPA) == g {
			j++
		}
		b.groupSegments(g, pairs[i:j], gamma)
		i = j
	}
	return b.out
}

// lpas copies the points' LPAs into the arena and returns the capped
// sub-slice (later arena growth cannot alias into it).
func (b *learnBuf) lpas(pts []plr.Point, base addr.LPA) []addr.LPA {
	start := len(b.arena)
	b.arena = slices.Grow(b.arena, len(pts))[:start+len(pts)]
	out := b.arena[start:len(b.arena):len(b.arena)]
	for i, p := range pts {
		out[i] = base + addr.LPA(p.X)
	}
	return out
}

func (b *learnBuf) groupSegments(g addr.GroupID, pairs []addr.Mapping, gamma int) {
	base := addr.GroupBase(g)
	b.pts = slices.Grow(b.pts[:0], len(pairs))[:len(pairs)]
	pts := b.pts
	for i, m := range pairs {
		pts[i] = plr.Point{X: int64(m.LPA - base), Y: int64(m.PPA)}
	}
	if gamma == 0 {
		b.fitRange(g, pts, 0)
		return
	}
	// Two-pass learning for gamma > 0: peel off stride-clean runs first
	// so they become *accurate* segments, then fit only the irregular
	// remainder with the relaxed bound. A single greedy pass would
	// absorb long clean runs into approximate segments, trading their
	// guaranteed-exact translations for marginal byte savings; the
	// paper's segment mix (Figure 20: 73.5% accurate even at γ=16) and
	// low misprediction ratios (Figure 24) require keeping clean runs
	// accurate.
	const minCleanRun = 4
	lo := 0
	for lo < len(pts) {
		hi := lo + 1
		st := int64(0)
		if hi < len(pts) && pts[hi].Y-pts[lo].Y == 1 {
			st = pts[hi].X - pts[lo].X
			for hi < len(pts) && pts[hi].X-pts[hi-1].X == st && pts[hi].Y-pts[hi-1].Y == 1 {
				hi++
			}
		}
		if hi-lo >= minCleanRun {
			b.fitRange(g, pts[lo:hi], 0)
		} else {
			// Extend the irregular stretch until the next long clean run.
			end := hi
			for end < len(pts) {
				rh := end + 1
				if rh < len(pts) && pts[rh].Y-pts[end].Y == 1 {
					d := pts[rh].X - pts[end].X
					for rh < len(pts) && pts[rh].X-pts[rh-1].X == d && pts[rh].Y-pts[rh-1].Y == 1 {
						rh++
					}
				}
				if rh-end >= minCleanRun {
					break
				}
				end = rh
			}
			b.fitRange(g, pts[lo:end], gamma)
			hi = end
		}
		lo = hi
	}
}

// fitRange fits one stretch of points with the given bound and verifies
// the quantized segments. The fitted-segment buffer is reused across
// calls; buildVerified never re-enters fitRange, so that is safe.
func (b *learnBuf) fitRange(g addr.GroupID, pts []plr.Point, gamma int) {
	b.segs = fit(b.segs[:0], pts, gamma)
	k := 0
	for _, fs := range b.segs {
		n := fs.N
		b.buildVerified(g, pts[k:k+n], fs, gamma)
		k += n
	}
}

// buildVerified quantizes a fitted segment and verifies its predictions,
// splitting recursively if float16/float32 quantization broke the bound.
func (b *learnBuf) buildVerified(g addr.GroupID, pts []plr.Point, fs plr.Segment, gamma int) {
	base := addr.GroupBase(g)
	if len(pts) == 1 {
		// Single-point segment: L=0, K=0, I=PPA (paper §3.1). Its decoded
		// cache is what prime derives from K = 0: stride 1 and the
		// constant line I, a non-negative integer.
		seg := Segment{L: 0, K: 0, I: float32(pts[0].Y), stride: 1}
		b.finish(&seg, addr.PPA(float64(seg.I)), pts, base, nil)
		return
	}

	// An accurate segment encodes an arithmetic LPA progression mapped to
	// *consecutive* PPAs: lookups test membership with
	// (lpa−S) mod round(1/K) (Algorithm 2), which is only meaningful when
	// the LPA stride is constant and each step advances the PPA by
	// exactly one (the flush order guarantees the latter for buffered
	// writes). Anything else must be approximate so the CRB provides the
	// membership set.
	strideOK := true
	st := pts[1].X - pts[0].X
	for i := 1; i < len(pts); i++ {
		if pts[i].X-pts[i-1].X != st || pts[i].Y-pts[i-1].Y != 1 {
			strideOK = false
			break
		}
	}

	if strideOK {
		if cand, ok := quantize(pts, fs, false); ok && int64(strideOf(cand.kf)) == st {
			if _, ok := b.withinGamma(&cand, pts, base, 0); ok {
				// Proved: the stride is st and the first point is hit.
				cand.stride = uint32(st)
				b.finish(&cand, addr.PPA(pts[0].Y), pts, base, nil)
				return
			}
		}
	}
	if gamma > 0 {
		if cand, ok := quantize(pts, fs, true); ok {
			if miss, ok := b.withinGamma(&cand, pts, base, gamma); ok {
				cand.stride = strideOf(cand.kf)
				b.finish(&cand, predictAt(cand.kf, cand.I, pts[0].X), pts, base, miss)
				return
			}
		}
	}
	if strideOK || gamma > 0 {
		// Quantization broke the fit: halve and retry. Halving terminates
		// at single points, which always encode exactly.
		mid := len(pts) / 2
		b.buildVerified(g, pts[:mid], b.refit(pts[:mid], gamma), gamma)
		b.buildVerified(g, pts[mid:], b.refit(pts[mid:], gamma), gamma)
		return
	}
	// gamma = 0 and the run is not stride-clean (e.g. collinear points
	// with irregular strides, or PPA jumps): emit maximal stride-clean
	// sub-runs, degrading to single points in the worst case (§3.1).
	// Because !strideOK, every run is a strict subset, so this recursion
	// terminates.
	for lo := 0; lo < len(pts); {
		hi := lo + 1
		if hi < len(pts) && pts[hi].Y-pts[lo].Y == 1 {
			d := pts[hi].X - pts[lo].X
			for hi < len(pts) && pts[hi].X-pts[hi-1].X == d && pts[hi].Y-pts[hi-1].Y == 1 {
				hi++
			}
		}
		run := pts[lo:hi]
		b.buildVerified(g, run, b.refit(run, 0), 0)
		lo = hi
	}
}

// refit fits a split subset. Its scratch is separate from fitRange's segs
// buffer (fitRange is mid-iteration when refit runs); the returned value
// is consumed before the next refit call, so one buffer suffices.
func (b *learnBuf) refit(pts []plr.Point, gamma int) plr.Segment {
	b.refitSegs = fit(b.refitSegs[:0], pts, gamma)
	if len(b.refitSegs) == 1 {
		return b.refitSegs[0]
	}
	// The subset may itself need multiple segments; return a fit for the
	// whole span anyway — buildVerified's verification will split again.
	k := float64(pts[len(pts)-1].Y-pts[0].Y) / float64(pts[len(pts)-1].X-pts[0].X)
	return plr.Segment{FirstX: pts[0].X, LastX: pts[len(pts)-1].X, K: k, B: float64(pts[0].Y) - k*float64(pts[0].X), N: len(pts)}
}

// fit runs the greedy fitter over one group's points with slope clamped
// to [0, 1] and span to the group. At γ = 0 the cone the fitter keeps
// collapses to one slope at the second point, so fitExact reproduces its
// segments with integer arithmetic.
func fit(dst []plr.Segment, pts []plr.Point, gamma int) []plr.Segment {
	if gamma == 0 {
		return fitExact(dst, pts)
	}
	return plr.FitAppend(dst, pts, float64(gamma), 0, 1, int64(addr.GroupSize-1))
}

// fitExact appends what plr.FitAppend(dst, pts, 0, 0, 1, GroupSize−1)
// appends, without its per-point float work. At γ = 0 the fitter's cone
// after the second point is the single slope s₁ = dy₁/dx₁, admitted when
// 0 ≤ s₁ ≤ 1, and a later point stays in the segment exactly when its
// slope from the anchor rounds to s₁. With every dx at most 255, two
// different slopes in [0, 2] differ by at least 1/255², far above a
// double's rounding, so rounding to s₁ is the integer test
// dyⱼ·dx₁ = dy₁·dxⱼ. A closed segment's line is computed by the fitter's
// own γ = 0 formula, from its endpoints.
func fitExact(dst []plr.Segment, pts []plr.Point) []plr.Segment {
	const maxSpan = int64(addr.GroupSize - 1)
	for i := 0; i < len(pts); {
		x0, y0 := pts[i].X, pts[i].Y
		j := i + 1
		if j < len(pts) && pts[j].X > x0 && pts[j].X-x0 <= maxSpan {
			dx1, dy1 := pts[j].X-x0, pts[j].Y-y0
			if 0 <= dy1 && dy1 <= dx1 {
				for j++; j < len(pts); j++ {
					dx, dy := pts[j].X-x0, pts[j].Y-y0
					if pts[j].X <= pts[j-1].X || dx > maxSpan || dy*dx1 != dy1*dx {
						break
					}
				}
			}
		}
		dst = append(dst, line(pts[i:j]))
		i = j
	}
	return dst
}

// line is the γ = 0 fitter's segment for points it accepted as one run:
// a single point is K = 0, B = y; more are the line through the
// endpoints.
func line(pts []plr.Point) plr.Segment {
	f, l := pts[0], pts[len(pts)-1]
	if len(pts) == 1 {
		return plr.Segment{FirstX: f.X, LastX: f.X, K: 0, B: float64(f.Y), N: 1}
	}
	k := float64(l.Y-f.Y) / float64(l.X-f.X)
	return plr.Segment{FirstX: f.X, LastX: l.X, K: k, B: float64(f.Y) - k*float64(f.X), N: len(pts)}
}

// quantize builds the encoded segment for the fitted line, with the type
// flag folded into the slope's LSB (paper §3.2), and the slope it
// decodes to in the decoded cache.
func quantize(pts []plr.Point, fs plr.Segment, approx bool) (Segment, bool) {
	k16 := float16.From64(fs.K).WithFlag(approx)
	if k16.IsNaN() || k16.IsInf() {
		return Segment{}, false
	}
	span := pts[len(pts)-1].X - pts[0].X
	if span > math.MaxUint8 {
		return Segment{}, false
	}
	return Segment{kf: float16.To64(k16), L: uint8(span), K: k16, I: float32(fs.B)}, true
}

// finish anchors a quantized, verified segment at its first point and
// appends it with its LPAs and mispredicted pairs. The caller proved or
// computed its decoded cache on the way, p0 included, so nothing in it
// is derived twice.
func (b *learnBuf) finish(seg *Segment, p0 addr.PPA, pts []plr.Point, base addr.LPA, miss []addr.Mapping) {
	seg.SLPA = base + addr.LPA(pts[0].X)
	seg.p0, seg.primed = p0, true
	b.out = slices.Grow(b.out, 1)[:len(b.out)+1]
	ls := &b.out[len(b.out)-1]
	ls.Seg, ls.LPAs, ls.miss = *seg, b.lpas(pts, base), miss
}

// withinGamma reports whether seg's line ⌈k·x + i⌉ is within ±gamma of
// every point (at gamma = 0: hits every one) and, if so, returns the
// points it misses as pairs of the group at base, kept in b.miss.
func (b *learnBuf) withinGamma(seg *Segment, pts []plr.Point, base addr.LPA, gamma int) ([]addr.Mapping, bool) {
	start := len(b.miss)
	for _, p := range pts {
		d := int64(predictAt(seg.kf, seg.I, p.X)) - p.Y
		if d < -int64(gamma) || d > int64(gamma) {
			b.miss = b.miss[:start]
			return nil, false
		}
		if d != 0 {
			b.miss = append(b.miss, addr.Mapping{LPA: base + addr.LPA(p.X), PPA: addr.PPA(p.Y)})
		}
	}
	return b.miss[start:len(b.miss):len(b.miss)], true
}

// predictAt evaluates ⌈k·x + i⌉, clamped at 0.
func predictAt(k float64, i float32, x int64) addr.PPA {
	p := math.Ceil(k*float64(x) + float64(i))
	if p < 0 {
		p = 0
	}
	return addr.PPA(p)
}
