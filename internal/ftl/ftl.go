// Package ftl defines the interface every address-translation scheme
// implements (LeaFTL, and the DFTL and SFTL baselines of paper §4.1),
// plus the byte-budgeted LRU cache the demand-paged schemes and the
// device's data cache share.
//
// A scheme owns only the mapping *index*. The device (package ssd) owns
// flash, the data buffer, the data cache, GC and wear leveling, and calls
// the scheme to translate reads and to commit the mappings created by
// flushes and GC moves. Costs are returned as counts of translation-
// metadata flash operations so the device can charge them on the flash
// timelines and in the write-amplification accounting (Figure 25).
package ftl

import (
	"encoding/binary"
	"hash/fnv"
	"slices"

	"leaftl/internal/addr"
)

// Cost counts flash operations a translation-layer action induced:
// translation-page reads on mapping-cache misses and translation-page
// writes for dirty evictions or periodic table persistence.
type Cost struct {
	MetaReads  int
	MetaWrites int

	// ReadIDs/WriteIDs hold one ID per counted operation, in charge
	// order: a scheme-stable identity of the translation page (virtual
	// translation PPA, region or group number) the device maps onto the
	// die actually holding the page. len(ReadIDs) == MetaReads and
	// len(WriteIDs) == MetaWrites.
	ReadIDs  []uint64
	WriteIDs []uint64
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.MetaReads += o.MetaReads
	c.MetaWrites += o.MetaWrites
	c.ReadIDs = append(c.ReadIDs, o.ReadIDs...)
	c.WriteIDs = append(c.WriteIDs, o.WriteIDs...)
}

// AddRead charges one translation-page read of page id.
func (c *Cost) AddRead(id uint64) {
	c.MetaReads++
	c.ReadIDs = append(c.ReadIDs, id)
}

// AddWrite charges one translation-page write of page id.
func (c *Cost) AddWrite(id uint64) {
	c.MetaWrites++
	c.WriteIDs = append(c.WriteIDs, id)
}

// Translation is the result of one LPA lookup.
type Translation struct {
	PPA  addr.PPA
	Cost Cost
	// Levels is how many mapping-table levels the lookup visited
	// (LeaFTL only; 1 for flat schemes). Feeds Figure 23.
	Levels int
	// Approx marks a prediction that may be off by up to ±gamma and must
	// be verified against the OOB reverse mapping (LeaFTL only). Every
	// other translation is trusted: a wrong PPA there is an invariant
	// violation, not a misprediction.
	Approx bool
}

// Scheme is an address-translation scheme under test.
type Scheme interface {
	// Name identifies the scheme in reports ("DFTL", "SFTL", "LeaFTL").
	Name() string

	// Translate maps an LPA to its (possibly approximate) PPA. ok is
	// false when the scheme holds no mapping for lpa.
	Translate(lpa addr.LPA) (Translation, bool)

	// Commit installs freshly written mappings. pairs are sorted by LPA
	// with unique LPAs and monotonically increasing PPAs — the flush
	// path guarantees this ordering (paper §3.3).
	//
	// pairs is borrowed for the duration of the call: the device reuses
	// its backing array for the next batch, so a scheme that needs the
	// mappings afterwards must copy them.
	Commit(pairs []addr.Mapping) Cost

	// SetBudget caps the scheme's DRAM usage for cached mapping state.
	// Every scheme honors it: DFTL/SFTL size their cached-mapping tables
	// to it, and LeaFTL demand-pages segment groups to flash translation
	// pages once the learned table outgrows it (a budget ≤ 0 leaves the
	// learned table unconstrained).
	SetBudget(bytes int)

	// MemoryBytes reports current DRAM consumption of mapping state.
	MemoryBytes() int

	// FullSizeBytes reports the size of the complete mapping structure,
	// resident or not — the quantity Figures 15 and 19 compare.
	FullSizeBytes() int

	// Maintain runs periodic work (LeaFTL: segment compaction and
	// mapping-table persistence). The device calls it after every flush
	// with the cumulative count of host page writes.
	Maintain(hostPageWrites uint64) Cost

	// MappingDigest hashes the scheme's whole mapping state, resident or
	// not, into one FNV-64a value. Two schemes with equal digests answer
	// every LPA from the same encoding; a change that moves only the
	// mapping's encoding moves this digest but not the device's
	// StateDigest.
	MappingDigest() uint64
}

// DigestEntries is MappingDigest for a page-level table: FNV-64a over
// every LPA→PPA entry in ascending LPA order.
func DigestEntries(table map[addr.LPA]addr.PPA) uint64 {
	lpas := make([]addr.LPA, 0, len(table))
	for l := range table {
		lpas = append(lpas, l)
	}
	slices.Sort(lpas)
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range lpas {
		binary.LittleEndian.PutUint32(buf[:4], uint32(l))
		binary.LittleEndian.PutUint32(buf[4:], uint32(table[l]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Gamma is implemented by schemes with a configurable error bound.
type Gamma interface {
	Gamma() int
}

// GroupPaged is implemented by schemes that page 256-LPA segment groups
// between DRAM and flash translation pages under a Global Mapping
// Directory (paper §3.8). The device uses it to account translation
// blocks against over-provisioned capacity, audit GMD consistency in
// CheckInvariants, and restore persisted groups during crash recovery
// instead of re-learning the whole mapping.
type GroupPaged interface {
	Scheme

	// TranslationPages reports the flash pages currently occupied by
	// persisted group images.
	TranslationPages() int

	// PersistedGroups returns copies of the serialized group images
	// that are current on flash (what survives a crash); dirty resident
	// groups are absent. The copies belong to the caller.
	PersistedGroups() map[addr.GroupID][]byte

	// RestoreGroups seeds a fresh scheme's directory with persisted
	// images, which it then owns; the groups demand-load on first
	// access.
	RestoreGroups(images map[addr.GroupID][]byte) error

	// CheckMapping audits the scheme's directory/cache bookkeeping and
	// the shape bounds of its resident mapping state, and returns the
	// first inconsistency (the mapping-side leg of the device's
	// CheckInvariants).
	CheckMapping() error
}

// Journaled is implemented by schemes that persist metadata through a
// metadata journal: the journal allocates the translation pages, and a
// dirty writeback appends the group's whole record into dedicated
// translation blocks shared with other groups' records, superseding its
// previous one. The scheme's directory records where each record landed,
// so a demand load reads that one record, and the journal reclaims its
// own blocks by re-appending a victim block's live records. The device
// uses it to size the journal from flash geometry and over-provisioning
// and to surface journal counters in benchmarks.
type Journaled interface {
	GroupPaged

	// ConfigureJournal sets the journal's translation-block geometry
	// (pages per block) and its flash-footprint cap in pages, the
	// threshold that drives journal GC; both must be positive. The
	// scheme persists no record before this call.
	ConfigureJournal(pagesPerBlock, maxPages int)

	// JournalStats snapshots the journal counters.
	JournalStats() JournalStats
}

// JournalStats counts metadata journal activity and occupancy.
type JournalStats struct {
	// Appends counts the group records dirty writebacks appended;
	// Folds the live records journal GC re-appended from its victim
	// blocks; GCRuns journal block reclaims.
	Appends uint64
	Folds   uint64
	GCRuns  uint64
	// Pages/Blocks are current translation-footprint occupancy; Groups
	// the journaled group count.
	Pages  int
	Blocks int
	Groups int
	// MaxChain is always 0: a group has one record, not a chain. It
	// stays because the benchmark under bench/ reports it.
	MaxChain int
}

// MissReporter names read feedback the device does not send: a scheme
// that verifies at learn time has nothing to learn from a read. It
// stays because the benchmark under bench/ names it and forwards both
// methods.
type MissReporter interface {
	NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) Cost
	NoteExact(lpa addr.LPA) Cost
}

// GCRelearner is implemented by schemes that re-fit their mapping model
// from GC relocation batches. The device's garbage collection relocates
// a window of victims at a time as one pool sorted by LPA, and commits
// it through CommitGC instead of Commit, one batch per destination block
// of each stream lane: an ascending LPA run onto consecutive PPAs, like
// a flush, that holds every page of each group it touches that landed in
// that block. A group is therefore handed over once per window and
// destination block, not once per victim that held some of its pages.
// The scheme may relearn the affected groups from the freshly
// sequential layout and reports how many it re-fitted (0 when
// relearning is disabled — CommitGC then behaves exactly like Commit).
// pairs is borrowed for the call, as in Commit: the device reuses it for
// the next relocation batch.
type GCRelearner interface {
	CommitGC(pairs []addr.Mapping) (Cost, int)
}

// ExactAuditor is implemented by schemes that audit their accurate
// translations. The device's CheckInvariants hands it a ground-truth
// oracle (live PPA per LPA; ok=false for unmapped or lost pages) and the
// scheme checks every resident translation it would not mark Approx
// against it — one pointing at the wrong page would make the device read
// the wrong page without an OOB check, so any disagreement is a hard
// invariant failure, found before any read of that LPA. The audit must
// be side-effect free and must not fault paged-out groups in.
type ExactAuditor interface {
	AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error
}

// AdaptiveGamma reports the largest per-group error bound. No scheme
// tunes one any more; it stays because the benchmark under bench/ names it.
type AdaptiveGamma interface {
	Gamma
	MaxGroupGamma() int
}

// Concurrent marks a scheme whose Translate is safe for concurrent use.
// No scheme implements it any more; it stays because the benchmark under
// bench/ names it.
type Concurrent interface {
	Scheme

	// TranslateShards returns the number of independent translation
	// shards: the maximum useful lookup concurrency.
	TranslateShards() int
}
