package ssd

import (
	"fmt"

	"leaftl/internal/flash"
)

// GCPolicy selects garbage-collection victims (§3.6 and the classic
// log-structured cleaning literature). A policy is a pure selector over
// the device's VictimIndex; it owns no state of its own, so the same
// policy value can serve any number of devices.
//
// Built-in policies ("greedy", "cost-benefit", "fifo") are selected by
// name through Config.GCPolicy; see GCPolicyByName.
type GCPolicy interface {
	// Name identifies the policy in reports and CLI flags.
	Name() string
	// PickVictim returns the next victim among the index's sealed
	// candidate blocks. ok is false when no candidate would free net
	// space — every candidate is fully valid, or there are none — so
	// the caller can fail cleanly instead of looping.
	//
	// now is the device's logical clock (host page-write count), the
	// time base for block-age scoring.
	PickVictim(ix *VictimIndex, now uint64) (victim flash.BlockID, ok bool)
}

// GCPolicyNames lists the built-in policy names (CLI help, experiment
// matrices).
func GCPolicyNames() []string { return []string{"greedy", "cost-benefit", "fifo"} }

// GCPolicyByName returns a built-in policy. The empty string selects
// greedy, the device's historical default.
func GCPolicyByName(name string) (GCPolicy, error) {
	switch name {
	case "", "greedy":
		return greedyPolicy{}, nil
	case "cost-benefit", "costbenefit", "cb":
		return costBenefitPolicy{}, nil
	case "fifo":
		return fifoPolicy{}, nil
	}
	return nil, fmt.Errorf("ssd: unknown GC policy %q (want greedy, cost-benefit, or fifo)", name)
}

// VictimIndex is the incremental GC-candidate index: every sealed,
// allocated block bucketed by its current valid-page count, kept up to
// date by the device at each program/invalidate, so victim selection is
// O(1) amortized instead of an O(blocks) scan per reclaim.
//
// A block enters the index when it is sealed (a flush chunk finishes, or
// a GC destination stream fills), moves between buckets as its pages are
// invalidated, and leaves when it is erased or chosen for relocation.
// Open GC destination blocks are deliberately absent, which is what
// guarantees a policy never selects them.
type VictimIndex struct {
	ppb     int
	buckets [][]flash.BlockID // buckets[v]: candidate blocks with v valid pages
	pos     []int32           // block → index within its bucket (-1 when absent)
	cnt     []int32           // block → its bucket / valid count (-1 when absent)
	min     int               // lowest possibly-non-empty bucket (advancing cursor)
	size    int
	valid   int // valid pages summed over the candidates

	touch []uint64 // block → logical clock of its last program or invalidate
	seqOf []uint64 // block → allocation sequence recorded at add time

	// FIFO queue in seal order, with lazy deletion: entries whose block
	// left the index (or was erased and re-sealed under a new sequence)
	// are skipped and dropped when they reach the head.
	fifo    []flash.BlockID
	fifoSeq []uint64
	head    int
}

// newVictimIndex returns an empty index for a device with the given
// block count and pages per block.
func newVictimIndex(blocks, ppb int) *VictimIndex {
	ix := &VictimIndex{
		ppb:     ppb,
		buckets: make([][]flash.BlockID, ppb+1),
		pos:     make([]int32, blocks),
		cnt:     make([]int32, blocks),
		touch:   make([]uint64, blocks),
		seqOf:   make([]uint64, blocks),
		min:     ppb + 1,
	}
	for i := range ix.pos {
		ix.pos[i] = -1
		ix.cnt[i] = -1
	}
	return ix
}

// PagesPerBlock returns the block size the buckets are indexed by.
func (ix *VictimIndex) PagesPerBlock() int { return ix.ppb }

// Len returns the number of candidate blocks.
func (ix *VictimIndex) Len() int { return ix.size }

// Has reports whether b is a candidate.
func (ix *VictimIndex) Has(b flash.BlockID) bool { return ix.cnt[b] >= 0 }

// Valid returns b's valid-page count (-1 when b is not a candidate).
func (ix *VictimIndex) Valid(b flash.BlockID) int { return int(ix.cnt[b]) }

// Age returns how many host page writes ago block b was last modified
// (programmed into, or had a page invalidated) — the cost-benefit
// policy's age term, on the device's logical clock.
func (ix *VictimIndex) Age(b flash.BlockID, now uint64) uint64 {
	if t := ix.touch[b]; now > t {
		return now - t
	}
	return 0
}

// Seq returns b's allocation sequence number recorded when it was
// sealed (FIFO order; 0 when b is not a candidate).
func (ix *VictimIndex) Seq(b flash.BlockID) uint64 {
	if ix.cnt[b] < 0 {
		return 0
	}
	return ix.seqOf[b]
}

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

// Bucket returns the candidates holding exactly v valid pages. The
// returned slice is the index's own storage — callers must not retain
// or mutate it across index updates.
func (ix *VictimIndex) Bucket(v int) []flash.BlockID {
	if v < 0 || v > ix.ppb {
		return nil
	}
	return ix.buckets[v]
}

// add registers a freshly sealed block with its current valid count and
// allocation sequence.
func (ix *VictimIndex) add(b flash.BlockID, valid int, seq, now uint64) {
	if ix.cnt[b] >= 0 {
		panic(fmt.Sprintf("ssd: GC index double-add of block %d", b))
	}
	ix.cnt[b] = int32(valid)
	ix.pos[b] = int32(len(ix.buckets[valid]))
	ix.buckets[valid] = append(ix.buckets[valid], b)
	ix.seqOf[b] = seq
	ix.touch[b] = now
	ix.size++
	ix.valid += valid
	if valid < ix.min {
		ix.min = valid
	}
	ix.fifo = append(ix.fifo, b)
	ix.fifoSeq = append(ix.fifoSeq, seq)
	ix.compactFIFO()
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
	// The FIFO entry is dropped lazily: its recorded sequence no longer
	// matches seqOf once the block is re-added after an erase, and
	// cnt[b] is -1 until then.
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

// note records a modification of block b at the given logical clock —
// the age input of cost-benefit scoring. It applies to any block,
// candidate or not (an open destination's writes count as
// modifications, so a block seals with an honest age).
func (ix *VictimIndex) note(b flash.BlockID, now uint64) { ix.touch[b] = now }

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

// compactFIFO rebuilds the queue once stale entries could dominate it.
// Live candidates are bounded by the block count, so rebuilding in seal
// order whenever the queue grows past twice that (or the head has
// consumed half of it) keeps memory O(blocks) under every policy —
// greedy and cost-benefit never advance the head themselves, so
// without this the lazily-deleted entries would accumulate for the
// lifetime of the device. Amortized O(1) per add.
func (ix *VictimIndex) compactFIFO() {
	if len(ix.fifo)-ix.head <= 2*len(ix.pos)+64 && ix.head <= len(ix.fifo)/2 {
		return
	}
	w := 0
	for i := ix.head; i < len(ix.fifo); i++ {
		b := ix.fifo[i]
		if ix.cnt[b] >= 0 && ix.fifoSeq[i] == ix.seqOf[b] {
			ix.fifo[w], ix.fifoSeq[w] = b, ix.fifoSeq[i]
			w++
		}
	}
	ix.fifo, ix.fifoSeq, ix.head = ix.fifo[:w], ix.fifoSeq[:w], 0
}

// greedyPolicy picks a block with the fewest valid pages — the paper's
// §3.6 policy and the device's default. O(1) amortized via the bucket
// cursor.
type greedyPolicy struct{}

// Name implements GCPolicy.
func (greedyPolicy) Name() string { return "greedy" }

// PickVictim implements GCPolicy.
func (greedyPolicy) PickVictim(ix *VictimIndex, _ uint64) (flash.BlockID, bool) {
	v := ix.MinValid()
	if v < 0 || v >= ix.PagesPerBlock() {
		// Empty, or even the emptiest block is fully valid: moving it
		// frees nothing net of the copies.
		return 0, false
	}
	bucket := ix.Bucket(v)
	return bucket[len(bucket)-1], true
}

// cbSample bounds how many low-utilization candidates one cost-benefit
// pick scores. Scoring every allocated block would reintroduce the
// O(blocks) scan the index exists to avoid; sampling the least-valid
// candidates keeps selection O(1) amortized while still letting age
// reorder the front of the utilization distribution (the same bounded-
// candidates move production FTLs and the d-choices literature use).
const cbSample = 64

// costBenefitPolicy scores age·(1−u)/(2u) — the LFS/e-greedy
// cost-benefit formula: u is the block's utilization, the 2u term
// charges both the read and the write of each live page, and age
// (writes since the block last changed) rewards cold blocks whose
// remaining valid pages are unlikely to be invalidated for free later.
type costBenefitPolicy struct{}

// Name implements GCPolicy.
func (costBenefitPolicy) Name() string { return "cost-benefit" }

// PickVictim implements GCPolicy.
func (costBenefitPolicy) PickVictim(ix *VictimIndex, now uint64) (flash.BlockID, bool) {
	ppb := ix.PagesPerBlock()
	minV := ix.MinValid()
	if minV < 0 || minV >= ppb {
		return 0, false
	}
	var (
		best      flash.BlockID
		bestScore = -1.0
		found     bool
		seen      int
	)
	for v := minV; v < ppb && seen < cbSample; v++ {
		for _, b := range ix.Bucket(v) {
			if v == 0 {
				// A fully-invalid block is a free win regardless of age.
				return b, true
			}
			u := float64(v) / float64(ppb)
			score := float64(ix.Age(b, now)+1) * (1 - u) / (2 * u)
			if score > bestScore {
				best, bestScore, found = b, score, true
			}
			if seen++; seen >= cbSample {
				break
			}
		}
	}
	return best, found
}

// fifoPolicy reclaims blocks in allocation order, the log-structured
// baseline: oldest sealed block first, regardless of how many valid
// pages it still holds. Fully-valid blocks are skipped (not dequeued)
// rather than moved — relocating them frees nothing and would livelock
// the reclaim loop — so FIFO degrades to "oldest block that frees
// space".
type fifoPolicy struct{}

// Name implements GCPolicy.
func (fifoPolicy) Name() string { return "fifo" }

// PickVictim implements GCPolicy.
func (fifoPolicy) PickVictim(ix *VictimIndex, _ uint64) (flash.BlockID, bool) {
	for i := ix.head; i < len(ix.fifo); i++ {
		b := ix.fifo[i]
		if ix.cnt[b] < 0 || ix.fifoSeq[i] != ix.seqOf[b] {
			// Stale entry (erased, or erased and re-sealed under a new
			// sequence): drop it permanently once it reaches the head.
			if i == ix.head {
				ix.head++
			}
			continue
		}
		if int(ix.cnt[b]) >= ix.ppb {
			continue // all valid: refuse, but keep queued for later
		}
		return b, true
	}
	return 0, false
}
