// Package leaftl wires the learned mapping table (internal/core) into the
// ftl.Scheme interface the SSD device drives (paper §3.8 "Put It All
// Together").
//
// Every commit registers its 256-LPA segment groups in a Global Mapping
// Directory (core.Pager), which holds each group's persisted record. The
// records live in the metadata journal: log-structured translation
// blocks where each writeback appends the group's whole record, packed
// back to back with other groups' records, and journal GC re-appends a
// victim block's live records. The device sizes the journal
// (ConfigureJournal) before anything is persisted. The learned table's
// whole point is being small (Figures 15/19), so it usually stays fully
// DRAM-resident and translations cost no flash accesses. When the byte
// budget binds (SetBudget > 0), the pager demand-pages groups to flash
// translation pages: lookups and commits touching a non-resident group
// charge the reads of the pages its record spans, exactly like DFTL's
// cached mapping table — which makes DRAM-budget comparisons between the
// schemes honest.
//
// Two presets build a Scheme (internal/experiments' schemePresets): paper
// learns at the γ it is given, and full (WithExactBitmap) learns at
// γ = 0 and adds GC-time relearning, so its table holds accurate
// segments only and no read it answers needs the §3.5 OOB verification.
//
// The table compacts itself as it is written (core's per-group rebuild
// triggers, §3.7). The scheme's periodic maintenance (every CompactEvery
// host page writes) sweeps the groups still under their triggers as a
// backstop and writes every dirty group back to flash translation blocks
// (§3.8), at every budget: recovery restores those records and re-learns
// only the rest. Dirty evictions write back too, and every translation
// page a writeback fills is charged as a translation-page write.
package leaftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
)

// Option configures a Scheme.
type Option func(*Scheme)

// WithCompactEvery overrides the maintenance interval (backstop
// compaction sweep plus the writeback of every dirty group), in host
// page writes. The paper's default is one million (§3.7).
func WithCompactEvery(n uint64) Option {
	return func(s *Scheme) { s.compactEvery = n }
}

// WithAutoTune does nothing: a scheme built WithExactBitmap learns at
// γ = 0 and has no miss to tune γ against. It stays because the
// benchmark under bench/ passes it.
func WithAutoTune(float64) Option { return func(*Scheme) {} }

// WithJournal does nothing: every scheme persists its groups through the
// metadata journal. It stays because the benchmark under bench/ passes
// it.
func WithJournal() Option { return func(*Scheme) {} }

// WithExactBitmap builds the full preset: the scheme learns at γ = 0,
// whatever γ New is given, and reports γ = 0, so every answer is exact
// and no read needs OOB verification; and GC relocation batches re-fit
// their groups from the freshly sequential layout (CommitGC, after
// LearnedFTL, arXiv:2303.13226). It used to verify γ-approximate fits at
// learn time and re-fit at γ = 0 what they mispredicted, which rejected
// nearly every approximate fit; learning at γ = 0 outright leaves the
// same answers for less host work. The name stays because the benchmark
// under bench/ passes it.
func WithExactBitmap() Option {
	return func(s *Scheme) { s.exactBitmap = true }
}

// Scheme is LeaFTL as an ftl.Scheme.
type Scheme struct {
	name         string
	table        *core.Table
	pager        *core.Pager
	compactEvery uint64
	lastCompact  uint64

	// Learn at γ = 0 with GC relearning (WithExactBitmap).
	exactBitmap bool

	// commitHook, when set, is told whether each commit was deferred
	// (test hook).
	commitHook func(deferred bool)

	// Stats accumulated for the evaluation figures.
	lookups    uint64
	levelsSum  uint64
	levelsHist []uint64 // lookups by levels visited
}

// New returns a LeaFTL scheme with error bound gamma (pages; 0 under
// WithExactBitmap) on a device with the given flash page size.
func New(gamma, pageSize int, opts ...Option) *Scheme {
	s := &Scheme{
		name:         "LeaFTL",
		compactEvery: 1_000_000,
	}
	for _, o := range opts {
		o(s)
	}
	if s.exactBitmap {
		gamma = 0
		s.name += "+bitmap"
	}
	s.table = core.NewTable(gamma)
	s.pager = core.NewPager(s.table, pageSize)
	return s
}

// Name implements ftl.Scheme.
func (s *Scheme) Name() string { return s.name }

// Gamma returns the error bound (implements ftl.Gamma).
func (s *Scheme) Gamma() int { return s.table.Gamma() }

// Table exposes the underlying learned table for structure-level
// experiments (Figures 5, 10, 12, 20). Under a binding budget it holds
// only the resident groups.
func (s *Scheme) Table() *core.Table { return s.table }

// commit commits a sorted batch through the pager. First every group
// the batch touches is made resident and dirtied, in ascending group
// order, demand-loading the ones paged out. Then, when the pager can
// prove Enforce would evict nothing once the batch lands (Pager.Defer),
// the batch is queued on the table, which commits it in the background
// and settles it before it next answers; the cost is EnsureWrite's.
// Otherwise the whole batch goes to the table in one Table.Update call,
// so the table may commit its group runs in parallel, and the byte cap
// is enforced once.
// While the batch commits, the resident set may exceed the budget by the
// batch's own groups; when commit returns it is back within it. Each
// group is loaded at most once per batch, so the batch charges the same
// translation-page reads as loading its groups one by one. It returns
// the cost and the number of groups the batch touched.
func (s *Scheme) commit(pairs []addr.Mapping) (ftl.Cost, int) {
	var cost ftl.Cost
	groups := 0
	for i := 0; i < len(pairs); groups++ {
		gid := addr.Group(pairs[i].LPA)
		cost.Add(s.pager.EnsureWrite(gid))
		for i < len(pairs) && addr.Group(pairs[i].LPA) == gid {
			i++
		}
	}
	deferred := s.pager.Defer(pairs, groups)
	if s.commitHook != nil {
		s.commitHook(deferred)
	}
	if !deferred {
		s.table.Update(pairs)
		cost.Add(s.pager.Enforce())
	}
	return cost, groups
}

// Translate implements ftl.Scheme. Under a binding budget, a lookup in a
// paged-out group first demand-loads its translation page (a read in
// the Cost), and the lookup is followed by evicting colder groups past
// the budget (a write for each dirty one).
func (s *Scheme) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	var cost ftl.Cost
	paged := !s.pager.FastPath()
	if paged {
		var known bool
		if cost, known = s.pager.EnsureRead(addr.Group(lpa)); !known {
			return ftl.Translation{}, false
		}
	}
	ppa, res, ok := s.table.Lookup(lpa)
	if paged {
		cost.Add(s.pager.Enforce())
	}
	if !ok {
		return ftl.Translation{Cost: cost}, false
	}
	s.noteLookup(res)
	return ftl.Translation{PPA: ppa, Cost: cost, Levels: res.Levels, Approx: res.Approx}, true
}

func (s *Scheme) noteLookup(res core.LookupResult) {
	s.lookups++
	s.levelsSum += uint64(res.Levels)
	for len(s.levelsHist) <= res.Levels {
		s.levelsHist = append(s.levelsHist, 0)
	}
	s.levelsHist[res.Levels]++
}

// Commit implements ftl.Scheme: learns index segments over the flushed
// batch and inserts them at the top level. Learning runs on the
// controller CPU (Table 3 measures it at ~10µs per 256 mappings) and
// costs no flash operations; under a budget, committing into paged-out
// groups demand-loads them and the byte cap is re-enforced after the
// batch (commit).
func (s *Scheme) Commit(pairs []addr.Mapping) ftl.Cost {
	cost, _ := s.commit(pairs)
	return cost
}

// SetBudget implements ftl.Scheme: a positive budget caps the resident
// learned table, paging segment groups to flash translation pages on
// demand; ≤ 0 leaves the table unconstrained. Shrinking below the
// current table evicts immediately so MemoryBytes honors the cap from
// here on; like DFTL's CMT resize, those writebacks happen between
// runs and are not charged to any host request.
func (s *Scheme) SetBudget(bytes int) {
	s.pager.SetBudget(bytes)
	s.pager.Enforce()
}

// MemoryBytes implements ftl.Scheme: the DRAM-resident mapping state.
func (s *Scheme) MemoryBytes() int { return s.table.SizeBytes() }

// FullSizeBytes implements ftl.Scheme: the complete learned table,
// resident or paged out.
func (s *Scheme) FullSizeBytes() int { return s.pager.FullSizeBytes() }

// MappingDigest implements ftl.Scheme: every group's record, resident or
// paged out (core.Pager.MappingDigest).
func (s *Scheme) MappingDigest() uint64 { return s.pager.MappingDigest() }

// Maintain implements ftl.Scheme: every compactEvery host page writes,
// sweep the groups written since their last rebuild (§3.7; the commit
// path already rebuilt the ones that outgrew their triggers), write every
// dirty group (updated since its last record; the sweep reshapes only
// those) back to translation blocks (§3.8) and re-enforce the budget.
// Clean groups cost nothing, at every budget.
func (s *Scheme) Maintain(hostPageWrites uint64) ftl.Cost {
	if hostPageWrites < s.lastCompact {
		// The device's host counters were reset (warmup/steady-state
		// separation); re-anchor instead of underflowing.
		s.lastCompact = hostPageWrites
	}
	if hostPageWrites-s.lastCompact < s.compactEvery {
		return ftl.Cost{}
	}
	s.lastCompact = hostPageWrites
	s.table.Compact()
	var cost ftl.Cost
	s.pager.FlushDirty(&cost)
	cost.Add(s.pager.Enforce())
	return cost
}

// MaxGroupGamma implements ftl.AdaptiveGamma, which the benchmark under
// bench/ names: every group learns at the table's γ.
func (s *Scheme) MaxGroupGamma() int { return s.Gamma() }

// FeedbackEnabled reports whether the scheme was built WithExactBitmap.
// The device does not ask; it stays because the benchmark under bench/
// names it.
func (s *Scheme) FeedbackEnabled() bool { return s.exactBitmap }

// NoteRead implements ftl.MissReporter, which the benchmark under bench/
// forwards; the device never calls it, and the scheme learns nothing
// from a read.
func (s *Scheme) NoteRead(addr.LPA, addr.PPA, addr.PPA, bool, bool) ftl.Cost { return ftl.Cost{} }

// NoteExact implements ftl.MissReporter, which the benchmark under bench/
// forwards; the device never calls it.
func (s *Scheme) NoteExact(addr.LPA) ftl.Cost { return ftl.Cost{} }

// CommitGC implements ftl.GCRelearner: GC relocation batches re-fit
// their groups from the freshly sequential layout (Table.Update), and a
// touched group that has outgrown its rebuild trigger sheds the stale
// claims relocation just rewrote. It commits exactly as Commit does; a
// scheme built WithExactBitmap also reports the groups it re-fitted
// (the device's Relearns), the paper preset none.
func (s *Scheme) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	if !s.exactBitmap {
		return s.Commit(pairs), 0
	}
	return s.commit(pairs)
}

// AuditExact implements ftl.ExactAuditor: every accurate answer of a
// resident group must be the device's ground truth
// (core.Table.AuditExact, run by CheckInvariants), for both presets.
func (s *Scheme) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	return s.table.AuditExact(truth)
}

// ConfigureJournal implements ftl.Journaled: the device hands over its
// flash geometry and the translation-footprint cap carved out of
// over-provisioning.
func (s *Scheme) ConfigureJournal(pagesPerBlock, maxPages int) {
	s.pager.ConfigureJournal(pagesPerBlock, maxPages)
}

// JournalStats implements ftl.Journaled.
func (s *Scheme) JournalStats() ftl.JournalStats { return s.pager.JournalStats() }

// SetJournalCrashHook installs the crash-injection hook fired at the
// journal's GC and fold points (reliability torture wiring).
func (s *Scheme) SetJournalCrashHook(fn func(string)) {
	s.pager.SetJournalHook(fn)
}

// TranslationPages implements ftl.GroupPaged.
func (s *Scheme) TranslationPages() int { return s.pager.TranslationPages() }

// PersistedGroups implements ftl.GroupPaged.
func (s *Scheme) PersistedGroups() map[addr.GroupID][]byte {
	return s.pager.PersistedGroups()
}

// RestoreGroups implements ftl.GroupPaged: recovery seeds the GMD with
// the records that survived on flash; the groups demand-load later.
func (s *Scheme) RestoreGroups(images map[addr.GroupID][]byte) error {
	return s.pager.RestoreGroups(images)
}

// CheckMapping implements ftl.GroupPaged: the GMD bookkeeping, and the
// shape bound the table's rebuild triggers maintain on every resident
// group (core.Table.CheckShape).
func (s *Scheme) CheckMapping() error {
	if err := s.pager.Check(); err != nil {
		return err
	}
	return s.table.CheckShape()
}

// PagingStats exposes the pager's fault/eviction counters (the source of
// the benchmark's pager.* metrics).
func (s *Scheme) PagingStats() core.PagerStats { return s.pager.Stats() }

// LookupLevels reports the average levels visited per lookup and the
// histogram of level counts (Figure 23a), keyed by levels visited with
// only the counts that occurred. The map is built fresh on every call and
// belongs to the caller.
func (s *Scheme) LookupLevels() (avg float64, hist map[int]uint64) {
	hist = make(map[int]uint64)
	for lvl, n := range s.levelsHist {
		if n > 0 {
			hist[lvl] = n
		}
	}
	if s.lookups == 0 {
		return 0, hist
	}
	return float64(s.levelsSum) / float64(s.lookups), hist
}

var (
	_ ftl.Scheme        = (*Scheme)(nil)
	_ ftl.GroupPaged    = (*Scheme)(nil)
	_ ftl.MissReporter  = (*Scheme)(nil)
	_ ftl.AdaptiveGamma = (*Scheme)(nil)
	_ ftl.GCRelearner   = (*Scheme)(nil)
	_ ftl.ExactAuditor  = (*Scheme)(nil)
	_ ftl.Journaled     = (*Scheme)(nil)
)
