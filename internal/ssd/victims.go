package ssd

import (
	"fmt"

	"leaftl/internal/flash"
)

// VictimIndex is the incremental GC-candidate index: every sealed,
// allocated block bucketed by its current valid-page count, kept up to
// date by the device at each program/invalidate, so victim selection is
// O(1) amortized instead of an O(blocks) scan per reclaim.
//
// A block enters the index when it is sealed (a flush chunk finishes, or
// a GC destination lane fills), moves between buckets as its pages are
// invalidated, and leaves when it is erased or chosen for relocation.
// Open GC destination blocks are deliberately absent, which is what
// guarantees GC never selects them.
type VictimIndex struct {
	ppb     int
	buckets [][]flash.BlockID // buckets[v]: candidate blocks with v valid pages
	pos     []int32           // block → index within its bucket (-1 when absent)
	cnt     []int32           // block → its bucket / valid count (-1 when absent)
	min     int               // lowest possibly-non-empty bucket (advancing cursor)
	size    int
	valid   int // valid pages summed over the candidates
}

// newVictimIndex returns an empty index for a device with the given
// block count and pages per block.
func newVictimIndex(blocks, ppb int) *VictimIndex {
	ix := &VictimIndex{
		ppb:     ppb,
		buckets: make([][]flash.BlockID, ppb+1),
		pos:     make([]int32, blocks),
		cnt:     make([]int32, blocks),
		min:     ppb + 1,
	}
	for i := range ix.pos {
		ix.pos[i] = -1
		ix.cnt[i] = -1
	}
	return ix
}

// Len returns the number of candidate blocks.
func (ix *VictimIndex) Len() int { return ix.size }

// Has reports whether b is a candidate.
func (ix *VictimIndex) Has(b flash.BlockID) bool { return ix.cnt[b] >= 0 }

// Valid returns b's valid-page count (-1 when b is not a candidate).
func (ix *VictimIndex) Valid(b flash.BlockID) int { return int(ix.cnt[b]) }

// invalidPages returns the stale pages summed over the candidates: the
// most a reclaim that drained the index could turn into free space.
func (ix *VictimIndex) invalidPages() int { return ix.size*ix.ppb - ix.valid }

// MinValid returns the smallest valid-page count over all candidates,
// advancing the internal cursor (-1 when the index is empty). The
// cursor only moves down when a block is added below it, so repeated
// calls are O(1) amortized.
func (ix *VictimIndex) MinValid() int {
	if ix.size == 0 {
		return -1
	}
	for ix.min <= ix.ppb && len(ix.buckets[ix.min]) == 0 {
		ix.min++
	}
	if ix.min > ix.ppb {
		return -1 // unreachable while size > 0; defensive
	}
	return ix.min
}

// pickVictim returns a candidate with the fewest valid pages — the
// paper's §3.6 greedy choice — in O(1) amortized via the bucket cursor.
// ok is false when no candidate would free net space: the index is
// empty, or even the emptiest block is fully valid, so moving it frees
// nothing net of the copies and the caller fails cleanly instead of
// looping.
func (ix *VictimIndex) pickVictim() (victim flash.BlockID, ok bool) {
	v := ix.MinValid()
	if v < 0 || v >= ix.ppb {
		return 0, false
	}
	bucket := ix.buckets[v]
	return bucket[len(bucket)-1], true
}

// add registers a freshly sealed block with its current valid count.
func (ix *VictimIndex) add(b flash.BlockID, valid int) {
	if ix.cnt[b] >= 0 {
		panic(fmt.Sprintf("ssd: GC index double-add of block %d", b))
	}
	ix.cnt[b] = int32(valid)
	ix.pos[b] = int32(len(ix.buckets[valid]))
	ix.buckets[valid] = append(ix.buckets[valid], b)
	ix.size++
	ix.valid += valid
	if valid < ix.min {
		ix.min = valid
	}
}

// remove unregisters a block (victim selection, wear-level move, or
// erase). Removing an absent block is a no-op, so the device can call
// it unconditionally on any reclaim path.
func (ix *VictimIndex) remove(b flash.BlockID) {
	v := ix.cnt[b]
	if v < 0 {
		return
	}
	ix.unbucket(b, int(v))
	ix.cnt[b] = -1
	ix.pos[b] = -1
	ix.size--
	ix.valid -= int(v)
}

// update moves a candidate to the bucket of its new valid count; blocks
// not in the index (open GC destinations, free blocks) are ignored.
func (ix *VictimIndex) update(b flash.BlockID, valid int) {
	old := ix.cnt[b]
	if old < 0 || int(old) == valid {
		return
	}
	ix.unbucket(b, int(old))
	ix.valid += valid - int(old)
	ix.cnt[b] = int32(valid)
	ix.pos[b] = int32(len(ix.buckets[valid]))
	ix.buckets[valid] = append(ix.buckets[valid], b)
	if valid < ix.min {
		ix.min = valid
	}
}

// unbucket removes b from bucket v with the swap-with-last trick.
func (ix *VictimIndex) unbucket(b flash.BlockID, v int) {
	bucket := ix.buckets[v]
	i := ix.pos[b]
	last := len(bucket) - 1
	moved := bucket[last]
	bucket[i] = moved
	ix.pos[moved] = i
	ix.buckets[v] = bucket[:last]
}
