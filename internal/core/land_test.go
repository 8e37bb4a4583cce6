package core

import (
	"math/rand"
	"reflect"
	"testing"

	"leaftl/internal/addr"
)

// refPushDown is the one-victim-at-a-time push-down group.land replaces
// (Algorithm 1 lines 13–16), run on a group whose top level has been
// taken out: it moves the victim into the group's top level when it
// overlaps nothing there, and into a dedicated new level otherwise.
func refPushDown(g *group, victim Segment) {
	if g.depth() > 0 {
		next := g.level(0)
		p := searchKeys(next.keys, uint16(victim.Start()))
		overlaps := (p > 0 && next.segs[p-1].End() >= victim.SLPA) ||
			(p < next.len() && uint16(next.keys[p]) <= uint16(victim.Start())+uint16(victim.L))
		if !overlaps {
			refInsertTop(g, p, victim)
			return
		}
	}
	g.openLevel()
	refInsertTop(g, 0, victim)
}

// refInsertTop places seg at position pos of g's top level.
func refInsertTop(g *group, pos int, seg Segment) {
	g.grow(1)
	lo, _ := g.window(0)
	p, n := lo+pos, len(g.segs)
	g.segs = g.segs[:n+1]
	copy(g.segs[p+1:], g.segs[p:n])
	g.segs[p] = seg
	g.keys = g.keys[:n+1]
	copy(g.keys[p+1:], g.keys[p:n])
	g.keys[p] = seg.Start()
	g.ends[len(g.ends)-1]++
}

// refLand is group.land done the old way: take the top level out of the
// group with win in place of its consumed slots, push the victims down
// one at a time, and put the top level back above them.
func refLand(g *group, winLo, consumed int, win, down level) {
	lo, _ := g.window(0)
	var top level
	top.appendRange(level{keys: g.keys[lo:winLo], segs: g.segs[lo:winLo]})
	top.appendRange(win)
	top.appendRange(level{keys: g.keys[winLo+consumed:], segs: g.segs[winLo+consumed:]})
	g.segs, g.keys, g.ends = g.segs[:lo], g.keys[:lo], g.ends[:len(g.ends)-1]
	for _, v := range down.segs {
		refPushDown(g, v)
	}
	g.openLevel()
	g.segs = append(g.segs, top.segs...)
	g.keys = append(g.keys, top.keys...)
	g.ends[len(g.ends)-1] = int32(len(g.segs))
}

// randLevel returns up to n sorted, pairwise disjoint segments of group
// 0 with random gaps and spans, each told apart by a fresh intercept.
func randLevel(rng *rand.Rand, n int, tag *float32) level {
	var l level
	o := rng.Intn(48)
	for l.len() < n {
		span := rng.Intn(1 + rng.Intn(24))
		if o+span >= addr.GroupSize {
			break
		}
		*tag++
		l.push(Segment{SLPA: addr.LPA(o), L: uint8(span), I: *tag})
		o += span + 1 + rng.Intn(1+rng.Intn(40))
	}
	return l
}

// stack builds a group from its levels, levels[0] the top.
func stack(levels []level) *group {
	n := 0
	for _, l := range levels {
		n += l.len()
	}
	g := &group{}
	g.grow(n) // keys and segs at one capacity, as grow keeps them
	for d := len(levels) - 1; d >= 0; d-- {
		g.segs = append(g.segs, levels[d].segs...)
		g.keys = append(g.keys, levels[d].keys...)
		g.ends = append(g.ends, int32(len(g.segs)))
	}
	return g
}

// TestLandMatchesPushDown: landing a merge's victims in one pass leaves
// the group's segments, keys and level bounds exactly as pushing them
// down one at a time does, over random group shapes, merge windows and
// ascending, disjoint victim lists: with no level 1, with the first
// victim overlapping level 1, with a later one overlapping it, and with
// none overlapping.
func TestLandMatchesPushDown(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		var tag float32
		levels := make([]level, 1+rng.Intn(4))
		for i := range levels {
			levels[i] = randLevel(rng, 1+rng.Intn(12), &tag)
		}
		down := randLevel(rng, rng.Intn(6), &tag)
		win := randLevel(rng, rng.Intn(5), &tag)
		got, want := stack(levels), stack(levels)
		lo, hi := got.window(0)
		winLo := lo + rng.Intn(hi-lo+1)
		consumed := rng.Intn(hi - winLo + 1)

		first := -1
		if len(levels) > 1 {
		scan:
			for i, v := range down.segs {
				for _, s := range levels[1].segs {
					if v.Overlaps(s) {
						first = i
						break scan
					}
				}
			}
		}
		switch {
		case len(levels) == 1:
			cases["no level 1"]++
		case first == 0:
			cases["first victim overlaps"]++
		case first > 0:
			cases["later victim overlaps"]++
		default:
			cases["no overlap"]++
		}

		got.land(winLo, consumed, win, down)
		refLand(want, winLo, consumed, win, down)
		if !reflect.DeepEqual(got.segs, want.segs) || !reflect.DeepEqual(got.keys, want.keys) ||
			!reflect.DeepEqual(got.ends, want.ends) {
			t.Fatalf("levels %v, window %d+%d ← %v, victims %v:\n got %v %v\nwant %v %v",
				levels, winLo, consumed, win.segs, down.segs, got.ends, got.segs, want.ends, want.segs)
		}
	}
	for _, c := range []string{"no level 1", "first victim overlaps", "later victim overlaps", "no overlap"} {
		if cases[c] < 500 {
			t.Errorf("case %q ran %d times, want ≥ 500", c, cases[c])
		}
	}
}
