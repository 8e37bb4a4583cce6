package ssd

import "time"

// Stats aggregates everything the evaluation reports about one run.
type Stats struct {
	// Host-visible traffic.
	HostReadReqs   uint64
	HostWriteReqs  uint64
	HostPagesRead  uint64
	HostPagesWrite uint64

	// Where reads were served.
	BufferHits    uint64
	CacheHits     uint64
	CacheMisses   uint64
	UnmappedReads uint64 // reads of never-written LPAs

	// Translation behaviour.
	MetaReads      uint64 // translation-page reads (DFTL/SFTL misses)
	MetaWrites     uint64 // translation-page writes (dirty evictions, table persistence)
	Mispredictions uint64 // LeaFTL approximate lookups that missed (§3.5)
	ApproxReads    uint64 // reads translated by approximate segments
	OOBFallbacks   uint64 // mispredictions not resolved by one OOB window read

	// Misprediction resolution. DoubleReads counts the §3.5 double reads:
	// host page reads whose *first* flash data read landed on the wrong
	// page, forcing at least one more flash read. MissFallbacks counts
	// those the OOB window (or the block-edge probe loop) then resolved.
	// Without faults DoubleReads == MissFallbacks == Mispredictions,
	// except for a prediction past the last page whose clamped first read
	// lands on the true page: a misprediction that costs no extra read.
	MissFallbacks uint64
	DoubleReads   uint64

	// ExactBitHits is always 0: no scheme marks an approximate
	// translation trusted (the full preset learns at γ = 0 and has no
	// approximate segment). It stays because the benchmark under bench/
	// reports ExactBitHitRatio and the cells' JSON prints it.
	// Relearns counts segment groups re-fitted by GC-time relearning
	// (Table.Update through CommitGC) from LPA-sorted relocation batches.
	ExactBitHits uint64
	Relearns     uint64

	// Background machinery.
	FlushedBlocks uint64
	GCRuns        uint64
	GCPagesMoved  uint64
	GCErases      uint64
	WearMoves     uint64

	// Reliability machinery (fault injection). HostUECCs are host reads
	// that failed with an uncorrectable data error (surfaced as
	// *UECCError — never as silently wrong data); OOBReconstructed are
	// corrupted reverse mappings rebuilt from a sibling page's OOB
	// window; ScrubRelocations are blocks refreshed by read-reclaim
	// (disturb or retention thresholds); RetiredBlocks are blocks taken
	// out of rotation after program/erase failures; GCDataLoss counts
	// pages whose payload was lost to UECC during relocation copy-out.
	HostUECCs        uint64
	OOBReconstructed uint64
	ScrubRelocations uint64
	RetiredBlocks    uint64
	GCDataLoss       uint64

	// GC timing. GCTime is the simulated time during which background
	// relocation was in flight (GC reclaim, wear-leveling, scrub and
	// retirement moves, copy-out reads through the victim erase):
	// overlapping victims of one channel-parallel run count the span
	// they cover together, not once each. GCStall is the share of
	// host-visible flush stalls attributable to waiting on that
	// in-flight work — the quantity behind GC-induced p99/p999 spikes
	// in open-loop replay. GCStall never exceeds GCTime.
	GCTime  time.Duration
	GCStall time.Duration
}

// WAF returns the write amplification factor given the raw flash page
// writes observed by the array (paper Figure 25: actual / requested).
func (s Stats) WAF(flashPageWrites uint64) float64 {
	if s.HostPagesWrite == 0 {
		return 0
	}
	return float64(flashPageWrites) / float64(s.HostPagesWrite)
}

// MispredictionRatio returns mispredictions per host page read
// (paper Figure 24).
func (s Stats) MispredictionRatio() float64 {
	if s.HostPagesRead == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.HostPagesRead)
}

// DoubleReadRatio returns double reads per host page read — the §3.5
// wasted-flash-read rate.
func (s Stats) DoubleReadRatio() float64 {
	if s.HostPagesRead == 0 {
		return 0
	}
	return float64(s.DoubleReads) / float64(s.HostPagesRead)
}

// ExactBitHitRatio returns ExactBitHits over ApproxReads: always 0 (see
// ExactBitHits).
func (s Stats) ExactBitHitRatio() float64 {
	if s.ApproxReads == 0 {
		return 0
	}
	return float64(s.ExactBitHits) / float64(s.ApproxReads)
}
