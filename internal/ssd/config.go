package ssd

import (
	"fmt"
	"time"

	"leaftl/internal/flash"
)

// MappingMode selects how the SSD DRAM is split between the mapping
// structures and the data cache (the two settings of paper §4.2).
type MappingMode int

const (
	// MappingFirst gives the mapping structures as much DRAM as they ask
	// for (up to all of it minus the write buffer); the data cache gets
	// the leftovers. This is Figure 16 (a): "DRAM mainly used for the
	// address mapping table".
	MappingFirst MappingMode = iota
	// MappingCapped caps mapping structures at mappingCapFraction of DRAM,
	// guaranteeing the rest for data caching. This is Figure 16 (b):
	// "up to 80% for the address mapping table".
	MappingCapped
)

const (
	// mappingCapFraction is MappingCapped's cap on the mapping
	// structures' share of DRAM: Figure 16 (b)'s "up to 80%".
	mappingCapFraction = 0.8
	// cacheHitLatency is the service time of a request satisfied from
	// DRAM (the write buffer or the data cache).
	cacheHitLatency = time.Microsecond
)

func (m MappingMode) String() string {
	if m == MappingCapped {
		return "capped"
	}
	return "mapping-first"
}

// Config configures one simulated SSD.
type Config struct {
	Flash flash.Config

	// DRAMBytes is the controller DRAM shared by the mapping structures,
	// the write buffer and the data cache (Table 1: 1GB at full scale).
	DRAMBytes int64

	// OverProvision is the fraction of raw capacity hidden from the
	// host (Table 1: 20%).
	OverProvision float64

	// BufferPages sizes the write data buffer, in pages. It must be a
	// multiple of the flash block size so flushes always fill whole
	// blocks. The paper's default is 8MB (§3.3).
	BufferPages int

	// SortBuffer enables sorting buffered pages by LPA before a flush
	// (§3.3). Disabling it is the paper's implicit baseline in Figure 7
	// and our buffer-sort ablation.
	SortBuffer bool

	// Mode controls the DRAM split (see MappingMode).
	Mode MappingMode

	// GCLowWater triggers garbage collection when the free-block
	// fraction drops below it; GC runs until GCHighWater is restored
	// (§3.6: modern SSDs trigger at 15–40% free).
	GCLowWater  float64
	GCHighWater float64

	// WearDelta is the erase-count spread between the most- and
	// least-worn blocks that triggers a cold-block migration (§3.6).
	WearDelta uint32

	// ScrubDisturbReads triggers read-reclaim scrubbing: a sealed block
	// whose read count since its last erase reaches this threshold is
	// relocated through the GC path before read disturb accumulates
	// into uncorrectable errors. 0 disables disturb-driven scrubbing.
	ScrubDisturbReads uint32

	// ScrubRetentionAge triggers retention scrubbing: a sealed block
	// whose oldest page has sat programmed for this long is relocated
	// (refreshing its charge) at the next flush. 0 disables
	// retention-driven scrubbing.
	ScrubRetentionAge time.Duration

	// JournalPages caps the mapping-delta journal's flash footprint, in
	// pages, when the scheme journals metadata (ftl.Journaled with the
	// journal enabled). Crossing the cap triggers journal GC: the lowest-
	// live-record translation block is reclaimed by folding its live
	// chains into fresh base images. 0 sizes the journal to half the
	// over-provisioned capacity.
	JournalPages int
}

// SimulatorConfig returns the paper's simulator setup (Table 1) with
// capacity and DRAM scaled down proportionally: 4KB pages, 16 channels,
// 256 pages/block, 20% over-provisioning, 8MB write buffer.
func SimulatorConfig() Config {
	return Config{
		Flash:         flash.SimulatorDefaults(),
		DRAMBytes:     64 << 20,
		OverProvision: 0.20,
		BufferPages:   2048, // 8MB of 4KB pages
		SortBuffer:    true,
		Mode:          MappingFirst,
		GCLowWater:    0.0625,
		GCHighWater:   0.125,
		WearDelta:     64,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	switch {
	case c.DRAMBytes <= 0:
		return fmt.Errorf("ssd: DRAMBytes = %d, must be positive", c.DRAMBytes)
	case c.OverProvision < 0 || c.OverProvision >= 0.9:
		return fmt.Errorf("ssd: OverProvision = %v out of range [0, 0.9)", c.OverProvision)
	case c.BufferPages <= 0 || c.BufferPages%c.Flash.PagesPerBlock != 0:
		return fmt.Errorf("ssd: BufferPages = %d must be a positive multiple of PagesPerBlock = %d",
			c.BufferPages, c.Flash.PagesPerBlock)
	case c.GCLowWater <= 0 || c.GCHighWater <= c.GCLowWater || c.GCHighWater >= 1:
		return fmt.Errorf("ssd: GC watermarks (%v, %v) must satisfy 0 < low < high < 1",
			c.GCLowWater, c.GCHighWater)
	case c.ScrubRetentionAge < 0:
		return fmt.Errorf("ssd: ScrubRetentionAge = %v must not be negative", c.ScrubRetentionAge)
	case c.JournalPages < 0:
		return fmt.Errorf("ssd: JournalPages = %d must not be negative", c.JournalPages)
	}
	if int64(c.BufferPages)*int64(c.Flash.PageSize) >= c.DRAMBytes {
		return fmt.Errorf("ssd: write buffer (%d pages) does not fit in DRAM (%d bytes)",
			c.BufferPages, c.DRAMBytes)
	}
	return nil
}

// LogicalPages returns the host-visible capacity in pages.
func (c Config) LogicalPages() int {
	return int(float64(c.Flash.TotalPages()) * (1 - c.OverProvision))
}

// BufferBytes returns the write buffer's DRAM footprint.
func (c Config) BufferBytes() int64 {
	return int64(c.BufferPages) * int64(c.Flash.PageSize)
}
