// Package leaftl wires the learned mapping table (internal/core) into the
// ftl.Scheme interface the SSD device drives (paper §3.8 "Put It All
// Together").
//
// Every commit registers its 256-LPA segment groups in a Global Mapping
// Directory (core.Pager). The learned table's whole point is being small
// (Figures 15/19), so it usually stays fully DRAM-resident and
// translations cost no flash accesses. When the byte budget binds
// (SetBudget > 0), the pager demand-pages groups to flash translation
// pages: lookups and commits touching a non-resident group charge
// translation-page reads, dirty evictions and periodic persistence charge
// translation-page writes, exactly like DFTL's cached mapping table —
// which makes DRAM-budget comparisons between the schemes honest.
//
// The table compacts itself as it is written (core's per-group rebuild
// triggers, §3.7). The scheme's periodic maintenance (every CompactEvery
// host page writes) sweeps the groups still under their triggers as a
// backstop and persists the table to flash translation blocks for
// recovery (§3.8), charging the corresponding translation-page writes;
// under a budget only the groups whose images went stale are rewritten.
package leaftl

import (
	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
)

// Option configures a Scheme.
type Option func(*Scheme)

// WithCompactEvery overrides the maintenance interval (backstop
// compaction sweep plus table persistence), in host page writes. The
// paper's default is one million (§3.7).
func WithCompactEvery(n uint64) Option {
	return func(s *Scheme) { s.compactEvery = n }
}

// WithAutoTune does nothing: the exactness bitmap (WithExactBitmap)
// repairs every costly miss itself. It stays because the benchmark under
// bench/ passes it.
func WithAutoTune(float64) Option { return func(*Scheme) {} }

// WithJournal switches metadata persistence to the metadata journal:
// dirty evictions append the group's whole record, packed back to back
// with other groups' records into dedicated translation blocks; each
// append supersedes the group's previous record, a demand load reads
// that one record, and journal GC re-appends a victim block's live
// records. Off, the scheme is bit-identical to the image-per-page
// writeback path.
func WithJournal() Option {
	return func(s *Scheme) { s.journal = true }
}

// WithExactBitmap enables predicted-exact bitmaps and GC-time
// relearning (LearnedFTL, arXiv:2303.13226): the table verifies every
// committed slot's prediction and records exactness per LPA, Translate
// reports proven-exact approximate answers so the device reads them
// with no OOB verification budget, costly mispredictions are repaired
// with exact single-point segments, and GC relocation batches re-fit
// their groups from the freshly sequential layout (CommitGC).
func WithExactBitmap() Option {
	return func(s *Scheme) { s.bitmap = true }
}

// Scheme is LeaFTL as an ftl.Scheme.
type Scheme struct {
	name         string
	table        *core.Table
	pager        *core.Pager
	pageSize     int
	compactEvery uint64
	lastCompact  uint64

	// Predicted-exact bitmap + GC relearning (WithExactBitmap).
	bitmap bool

	// Metadata journal persistence (WithJournal).
	journal bool

	// Stats accumulated for the evaluation figures.
	lookups    uint64
	levelsSum  uint64
	levelsHist []uint64 // lookups by levels visited

	// The read run the device announced (ExpectRun), [runLo, runEnd),
	// and the answers one LookupRun gave for the memoN LPAs from memoLo
	// at table generation memoGen.
	runLo, runEnd addr.LPA
	memoLo        addr.LPA
	memoN         int
	memoGen       uint64
	memo          [addr.GroupSize]core.Answer
}

// New returns a LeaFTL scheme with error bound gamma (pages) on a device
// with the given flash page size.
func New(gamma, pageSize int, opts ...Option) *Scheme {
	table := core.NewTable(gamma)
	s := &Scheme{
		name:         "LeaFTL",
		table:        table,
		pager:        core.NewPager(table, pageSize),
		pageSize:     pageSize,
		compactEvery: 1_000_000,
	}
	for _, o := range opts {
		o(s)
	}
	if s.bitmap {
		s.table.EnableExactBitmap()
		s.name += "+bitmap"
	}
	if s.journal {
		s.pager.EnableJournal()
	}
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

// sweepCost builds the whole-table persistence cost: page i of the
// packed sweep is page i every sweep, so ids are just the page index.
func sweepCost(pages int) ftl.Cost {
	c := ftl.Cost{MetaWrites: pages, WriteIDs: make([]uint64, pages)}
	for i := range c.WriteIDs {
		c.WriteIDs[i] = uint64(i)
	}
	return c
}

// commit commits a sorted batch through the pager in three steps.
// First every group the batch touches is made resident and dirtied, in
// ascending group order, demand-loading the ones paged out. Then the
// whole batch goes to the table in one Table.Update call, so the table
// may commit its group runs in parallel. Last, the byte cap is enforced
// once.
// While the batch commits, the resident set may exceed the budget by the
// batch's own groups; when commit returns it is back within it. Each
// group is loaded at most once per batch, so the batch charges the same
// translation-page reads as loading its groups one by one. It returns
// the cost and the number of groups the batch touched.
func (s *Scheme) commit(pairs []addr.Mapping) (ftl.Cost, int) {
	var cost ftl.Cost
	for i := 0; i < len(pairs); {
		gid := addr.Group(pairs[i].LPA)
		cost.Add(s.pager.EnsureWrite(gid))
		for i < len(pairs) && addr.Group(pairs[i].LPA) == gid {
			i++
		}
	}
	groups := s.table.Update(pairs)
	cost.Add(s.pager.Enforce())
	return cost, groups
}

// Translate implements ftl.Scheme. Under a binding budget, a lookup in a
// paged-out group first demand-loads its translation page (MetaReads),
// possibly evicting colder groups (MetaWrites when dirty).
func (s *Scheme) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	var cost ftl.Cost
	if !s.pager.FastPath() {
		var known bool
		if cost, known = s.pager.EnsureRead(addr.Group(lpa)); !known {
			return ftl.Translation{}, false
		}
		ppa, res, ok := s.lookup(lpa)
		cost.Add(s.pager.Enforce())
		if !ok {
			return ftl.Translation{Cost: cost}, false
		}
		s.noteLookup(res)
		return ftl.Translation{PPA: ppa, Cost: cost, Levels: res.Levels, Approx: res.Approx, Exact: res.Exact}, true
	}
	ppa, res, ok := s.lookup(lpa)
	if !ok {
		return ftl.Translation{}, false
	}
	s.noteLookup(res)
	return ftl.Translation{PPA: ppa, Cost: cost, Levels: res.Levels, Approx: res.Approx, Exact: res.Exact}, true
}

// ExpectRun tells the scheme that the next Translate calls ask for the
// n LPAs from lpa in order (the device's multi-page reads). Translate
// then answers them from one LookupRun per group instead of a Lookup
// each. The hint only decides how far a sweep reaches: every answer is
// Lookup's, so nothing the device sees depends on it.
func (s *Scheme) ExpectRun(lpa addr.LPA, n int) {
	s.runLo, s.runEnd = lpa, lpa+addr.LPA(n)
}

// lookup answers lpa as Table.Lookup does. An LPA inside the announced
// run is served from the memo, which LookupRun refills from lpa to the
// end of the run or of lpa's group when lpa is not in it or the table
// has changed since (Gen). The run's last LPA is looked up alone when
// the memo lacks it: a one-slot sweep costs more than a Lookup.
func (s *Scheme) lookup(lpa addr.LPA) (addr.PPA, core.LookupResult, bool) {
	if lpa < s.runLo || lpa >= s.runEnd {
		return s.table.Lookup(lpa)
	}
	i := int(lpa - s.memoLo)
	if lpa < s.memoLo || i >= s.memoN || s.memoGen != s.table.Gen() {
		if lpa == s.runEnd-1 {
			return s.table.Lookup(lpa)
		}
		n := min(s.runEnd-lpa, addr.GroupBase(addr.Group(lpa)+1)-lpa)
		s.memoN = s.table.LookupRun(lpa, s.memo[:n])
		s.memoLo, s.memoGen, i = lpa, s.table.Gen(), 0
	}
	a := &s.memo[i]
	return a.PPA, a.Res, a.OK
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
// path already rebuilt the ones that outgrew their triggers) and persist
// the table to translation blocks (§3.8). Unbudgeted, persistence charges
// ⌈table/pageSize⌉ translation-page writes; under a budget, only dirty
// groups (updated or actually reshaped by the sweep since their last
// image) are rewritten.
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
	if s.pager.Paging() {
		for _, gid := range s.table.Compact() {
			s.pager.MarkDirty(gid)
		}
		cost := s.pager.FlushDirty()
		cost.Add(s.pager.Enforce())
		return cost
	}
	// The budget has never bound: persist the whole table in one sweep
	// (the pre-paging model — packed translation pages, no per-group
	// rounding) and keep no images around.
	s.table.Compact()
	pages := (s.table.SizeBytes() + s.pageSize - 1) / s.pageSize
	return sweepCost(pages)
}

// MaxGroupGamma implements ftl.AdaptiveGamma, which the benchmark under
// bench/ names: every group learns at the table's γ.
func (s *Scheme) MaxGroupGamma() int { return s.Gamma() }

// FeedbackEnabled reports whether the scheme wants the device's
// OOB-verified read feedback: only the exactness bitmap uses it.
func (s *Scheme) FeedbackEnabled() bool { return s.bitmap }

// NoteRead implements ftl.MissReporter: OOB-verified read feedback from
// the device, live only with the exactness bitmap on (FeedbackEnabled).
// The feedback sets or clears the slot's exact bit, and every
// misprediction is repaired on the spot: the recovery already paid the
// flash reads that proved the true PPA, so pinning it as an exact
// single-point segment costs no extra flash work and arms the slot's
// bit, so the same page can never pay the double read twice
// (LearnedFTL's double-read elimination, expressed in LeaFTL's segment
// vocabulary). Under a budget the repair dirties and re-caps the group
// like any commit. The device always passes hintResolved false.
func (s *Scheme) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) ftl.Cost {
	if !s.bitmap {
		return ftl.Cost{}
	}
	s.table.NoteRead(lpa, predicted, actual, approx)
	if !approx || actual == predicted {
		return ftl.Cost{}
	}
	cost := s.pager.EnsureWrite(addr.Group(lpa))
	s.table.Insert(repairPoint(lpa, actual))
	cost.Add(s.pager.Enforce())
	return cost
}

// NoteExact implements ftl.MissReporter, which the benchmark under bench/
// forwards; the device never calls it.
func (s *Scheme) NoteExact(addr.LPA) ftl.Cost { return ftl.Cost{} }

// CommitGC implements ftl.GCRelearner: GC relocation batches re-fit
// their groups from the freshly sequential layout (Table.Update), the
// moved slots' exactness is re-verified, and a touched group that has
// outgrown its rebuild trigger sheds the stale claims relocation just
// rewrote. With the bitmap off it is exactly Commit: no relearning, no
// behavioral difference from a scheme without the feature.
func (s *Scheme) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	if !s.bitmap {
		return s.Commit(pairs), 0
	}
	return s.commit(pairs)
}

// AuditExact implements ftl.ExactAuditor: verify every resident set bit
// against the device's ground truth (CheckInvariants). Trivially clean
// while the bitmap is off.
func (s *Scheme) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	return s.table.AuditExactBits(truth)
}

// repairPoint builds the exact single-point segment that pins a
// misprediction's corrected mapping (L=0, K=0, I=PPA — paper §3.1).
func repairPoint(lpa addr.LPA, ppa addr.PPA) core.Learned {
	return core.Learned{
		Seg:  core.Segment{SLPA: lpa, L: 0, K: 0, I: float32(ppa)},
		LPAs: []addr.LPA{lpa},
	}
}

// JournalEnabled implements ftl.Journaled.
func (s *Scheme) JournalEnabled() bool { return s.journal }

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
// the images that survived on flash; the groups demand-load later.
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
