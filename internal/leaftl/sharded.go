package leaftl

import (
	"sync"
	"sync/atomic"

	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
)

// Sharded is LeaFTL over a core.ShardedTable: the same learned mapping,
// partitioned N ways so independent host streams can translate
// concurrently (ftl.Concurrent). Commit and Maintain keep the device's
// serialized contract; Translate is safe from any number of goroutines,
// with the evaluation counters kept on atomics.
//
// Demand paging (SetBudget > 0) uses one pager shared across the shards
// — the DRAM budget is a device-wide quantity, and a shared directory
// makes the sharded scheme's paging decisions bit-identical to the plain
// scheme's (the sharded-invisible contract the experiment suite pins).
// While every known group is resident and within budget, lookups keep
// the lock-free sharded fast path; once groups page out, translations
// serialize behind the pager mutex, exactly like a real CMT.
type Sharded struct {
	name         string
	table        *core.ShardedTable
	pageSize     int
	compactEvery uint64
	lastCompact  uint64

	// pmu guards pager state; paging mirrors !pager.FastPath() so the
	// lock-free Translate path can skip it without touching the pager.
	// Fast-path misses re-check under the read side of pmu (evictors
	// hold the write side), so unmapped-LPA lookups stay concurrent.
	pmu    sync.RWMutex
	pager  *core.Pager
	paging atomic.Bool

	// Adaptive-γ controller state (WithAutoTune); feedback arrives on the
	// device's serialized read path, never from concurrent translators.
	autotune bool
	tune     core.TuneConfig

	// Predicted-exact bitmap + GC relearning (WithExactBitmap).
	bitmap bool

	// Mapping-delta journal persistence (WithJournal); lives in the
	// shared pager, so plain and sharded journal bit-identically.
	journal bool

	lookups    atomic.Uint64
	levelsSum  atomic.Uint64
	levelsHist [maxLevelBuckets]atomic.Uint64
	segLearned atomic.Uint64
	batchCount atomic.Uint64
}

// maxLevelBuckets bounds the lookup-level histogram; deeper visits land
// in the last bucket (group level stacks are a handful deep in practice,
// Figure 12).
const maxLevelBuckets = 64

// NewSharded returns a sharded LeaFTL scheme with error bound gamma
// (pages), the device's flash page size, and the given shard count.
func NewSharded(gamma, pageSize, shards int, opts ...Option) *Sharded {
	// Reuse Option plumbing via a throwaway Scheme so WithCompactEvery
	// applies uniformly.
	cfg := &Scheme{compactEvery: 1_000_000, name: "LeaFTL"}
	for _, o := range opts {
		o(cfg)
	}
	table := core.NewShardedTable(gamma, shards)
	name := cfg.name
	if cfg.bitmap {
		table.EnableExactBitmap()
		name += "+bitmap"
	}
	pager := core.NewPager(table, pageSize)
	if cfg.journal {
		pager.EnableJournal()
	}
	return &Sharded{
		name:         name + "-sharded",
		table:        table,
		pager:        pager,
		pageSize:     pageSize,
		compactEvery: cfg.compactEvery,
		autotune:     cfg.autotune,
		tune:         cfg.tune,
		bitmap:       cfg.bitmap,
		journal:      cfg.journal,
	}
}

// Name implements ftl.Scheme.
func (s *Sharded) Name() string { return s.name }

// Gamma returns the error bound (implements ftl.Gamma).
func (s *Sharded) Gamma() int { return s.table.Gamma() }

// TranslateShards implements ftl.Concurrent.
func (s *Sharded) TranslateShards() int { return s.table.Shards() }

// Table exposes the underlying sharded table for structure-level
// experiments.
func (s *Sharded) Table() *core.ShardedTable { return s.table }

// syncPaging refreshes the lock-free paging indicator; callers hold pmu
// (or run on the device's serialized mutation path).
func (s *Sharded) syncPaging() {
	s.paging.Store(s.pager.Active() && !s.pager.FastPath())
}

// Translate implements ftl.Scheme and is safe for concurrent use.
func (s *Sharded) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	if s.paging.Load() {
		return s.translatePaged(lpa)
	}
	ppa, res, ok := s.table.Lookup(lpa)
	if !ok {
		// A lock-free miss is not final: a concurrent commit may have
		// evicted this group between the paging-flag check and the
		// lookup. Retry under the pager mutex, where an evicted group
		// demand-loads; genuinely unmapped LPAs still return false.
		return s.translatePaged(lpa)
	}
	s.noteLookup(res)
	return ftl.Translation{PPA: ppa, Levels: res.Levels, Approx: res.Approx, Hint: res.Hint, Exact: res.Exact}, true
}

// translatePaged is the slow lookup: with no paging pressure it settles
// fast-path misses under pmu's read side (evictions hold the write
// side, so the re-lookup is final and misses stay concurrent); under
// pressure it takes the write side, where a paged-out group's
// translation page is demand-loaded before the sharded lookup runs.
func (s *Sharded) translatePaged(lpa addr.LPA) (ftl.Translation, bool) {
	s.pmu.RLock()
	if !s.pager.Active() || s.pager.FastPath() {
		ppa, res, ok := s.table.Lookup(lpa)
		s.pmu.RUnlock()
		if !ok {
			return ftl.Translation{}, false
		}
		s.noteLookup(res)
		return ftl.Translation{PPA: ppa, Levels: res.Levels, Approx: res.Approx, Hint: res.Hint, Exact: res.Exact}, true
	}
	s.pmu.RUnlock()
	s.pmu.Lock()
	// State may have shifted while upgrading the lock; EnsureRead is
	// cheap for groups that are (again) resident.
	pc, known := s.pager.EnsureRead(addr.Group(lpa))
	var (
		ppa addr.PPA
		res core.LookupResult
		ok  bool
	)
	if known {
		ppa, res, ok = s.table.Lookup(lpa)
	}
	pc.Add(s.pager.Enforce())
	s.syncPaging()
	s.pmu.Unlock()
	cost := pageCost(pc)
	if !known || !ok {
		return ftl.Translation{Cost: cost}, false
	}
	s.noteLookup(res)
	return ftl.Translation{PPA: ppa, Cost: cost, Levels: res.Levels, Approx: res.Approx, Hint: res.Hint, Exact: res.Exact}, true
}

func (s *Sharded) noteLookup(res core.LookupResult) {
	s.lookups.Add(1)
	s.levelsSum.Add(uint64(res.Levels))
	b := res.Levels
	if b >= maxLevelBuckets {
		b = maxLevelBuckets - 1
	}
	s.levelsHist[b].Add(1)
}

// Commit implements ftl.Scheme (serialized by the device, like Scheme).
func (s *Sharded) Commit(pairs []addr.Mapping) ftl.Cost {
	s.pmu.Lock()
	if !s.pager.Active() {
		s.pmu.Unlock()
		n := s.table.Update(pairs)
		s.segLearned.Add(uint64(n))
		s.batchCount.Add(1)
		return ftl.Cost{}
	}
	n, pc := commitPaged(s.pager, s.table.Update, pairs)
	s.syncPaging()
	s.pmu.Unlock()
	s.segLearned.Add(uint64(n))
	s.batchCount.Add(1)
	return pageCost(pc)
}

// SetBudget implements ftl.Scheme (see Scheme.SetBudget).
func (s *Sharded) SetBudget(bytes int) {
	s.pmu.Lock()
	s.pager.SetBudget(bytes)
	s.pager.Enforce()
	s.syncPaging()
	s.pmu.Unlock()
}

// MemoryBytes implements ftl.Scheme: the DRAM-resident mapping state.
func (s *Sharded) MemoryBytes() int { return s.table.SizeBytes() }

// FullSizeBytes implements ftl.Scheme.
func (s *Sharded) FullSizeBytes() int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.pager.Active() {
		return s.pager.FullSizeBytes()
	}
	return s.table.SizeBytes()
}

// Maintain implements ftl.Scheme: the backstop compaction sweep (parallel
// across shards) and table persistence, as in Scheme.Maintain.
func (s *Sharded) Maintain(hostPageWrites uint64) ftl.Cost {
	if hostPageWrites < s.lastCompact {
		s.lastCompact = hostPageWrites
	}
	if hostPageWrites-s.lastCompact < s.compactEvery {
		return ftl.Cost{}
	}
	s.lastCompact = hostPageWrites
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.autotune {
		// Retuned γs change the groups' wire records; dirty them so the
		// new bounds reach flash and survive eviction or a crash.
		for _, gid := range s.table.RetuneGamma(s.tune) {
			s.pager.MarkDirty(gid)
		}
	}
	if s.pager.Paging() {
		for _, gid := range s.table.CompactChanged() {
			s.pager.MarkDirty(gid)
		}
		pc := s.pager.FlushDirty()
		pc.Add(s.pager.Enforce())
		s.syncPaging()
		return pageCost(pc)
	}
	// Budget never bound: whole-table persistence, as in Scheme.Maintain.
	s.table.Compact()
	pages := (s.table.SizeBytes() + s.pageSize - 1) / s.pageSize
	return sweepCost(pages)
}

// MaxGroupGamma implements ftl.AdaptiveGamma.
func (s *Sharded) MaxGroupGamma() int { return s.table.MaxGroupGamma() }

// FeedbackEnabled reports whether the scheme wants the device's
// OOB-verified read feedback (adaptive controller or exactness bitmap
// on).
func (s *Sharded) FeedbackEnabled() bool { return s.autotune || s.bitmap }

// ExactBitmapEnabled reports whether predicted-exact bitmaps and GC
// relearning are on.
func (s *Sharded) ExactBitmapEnabled() bool { return s.bitmap }

// NoteRead implements ftl.MissReporter (see Scheme.NoteRead). The device
// serializes calls; the shard write lock inside core keeps the counters
// safe against concurrent Translates, and repairs take pmu like commits.
func (s *Sharded) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) ftl.Cost {
	if !s.autotune && !s.bitmap {
		return ftl.Cost{}
	}
	s.table.NoteRead(lpa, predicted, actual, approx, hintResolved)
	if !approx || actual == predicted || hintResolved ||
		(!s.bitmap && s.table.GroupGamma(addr.Group(lpa)) > 0) {
		return ftl.Cost{}
	}
	ls := repairPoint(lpa, actual)
	s.pmu.Lock()
	if s.pager.Active() {
		pc := s.pager.EnsureWrite(addr.Group(lpa))
		s.table.Insert(ls)
		pc.Add(s.pager.Enforce())
		s.syncPaging()
		s.pmu.Unlock()
		return pageCost(pc)
	}
	s.pmu.Unlock()
	s.table.Insert(ls)
	return ftl.Cost{}
}

// NoteExact implements ftl.MissReporter (see Scheme.NoteExact).
func (s *Sharded) NoteExact(lpa addr.LPA) ftl.Cost {
	if s.bitmap {
		s.table.NoteExactRead(lpa)
	}
	return ftl.Cost{}
}

// CommitGC implements ftl.GCRelearner (see Scheme.CommitGC); serialized
// by the device like Commit.
func (s *Sharded) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	if !s.bitmap {
		return s.Commit(pairs), 0
	}
	groups := 0
	relearn := func(run []addr.Mapping) int {
		sg, gr := s.table.Relearn(run)
		groups += gr
		return sg
	}
	s.pmu.Lock()
	if !s.pager.Active() {
		s.pmu.Unlock()
		n := relearn(pairs)
		s.segLearned.Add(uint64(n))
		s.batchCount.Add(1)
		return ftl.Cost{}, groups
	}
	n, pc := commitPaged(s.pager, relearn, pairs)
	s.syncPaging()
	s.pmu.Unlock()
	s.segLearned.Add(uint64(n))
	s.batchCount.Add(1)
	return pageCost(pc), groups
}

// AuditExact implements ftl.ExactAuditor (see Scheme.AuditExact).
func (s *Sharded) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	return s.table.AuditExactBits(truth)
}

// TranslationPages implements ftl.GroupPaged.
func (s *Sharded) TranslationPages() int {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.pager.TranslationPages()
}

// PersistedGroups implements ftl.GroupPaged.
func (s *Sharded) PersistedGroups() map[addr.GroupID][]byte {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.pager.PersistedGroups()
}

// RestoreGroups implements ftl.GroupPaged.
func (s *Sharded) RestoreGroups(images map[addr.GroupID][]byte) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	err := s.pager.RestoreGroups(images)
	s.syncPaging()
	return err
}

// CheckMapping implements ftl.GroupPaged (see Scheme.CheckMapping).
func (s *Sharded) CheckMapping() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if err := s.pager.Check(); err != nil {
		return err
	}
	return s.table.CheckShape()
}

// JournalEnabled implements ftl.Journaled.
func (s *Sharded) JournalEnabled() bool { return s.journal }

// ConfigureJournal implements ftl.Journaled.
func (s *Sharded) ConfigureJournal(pagesPerBlock, maxPages int) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.pager.ConfigureJournal(pagesPerBlock, maxPages)
}

// JournalStats implements ftl.Journaled.
func (s *Sharded) JournalStats() ftl.JournalStats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return journalStats(s.pager.JournalStats())
}

// SetJournalCrashHook forwards the pager's journal crash hook (see
// Scheme.SetJournalCrashHook).
func (s *Sharded) SetJournalCrashHook(hook func(point string)) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	s.pager.SetJournalHook(hook)
}

// PagingStats exposes the pager's fault/eviction counters.
func (s *Sharded) PagingStats() core.PagerStats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.pager.Stats()
}

// Snapshot serializes the full learned table (plain-Table snapshot
// format; shard count is a runtime choice, not persistent state),
// including paged-out groups from their translation-page images.
func (s *Sharded) Snapshot() ([]byte, error) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.pager.Active() {
		return s.table.SnapshotWith(s.pager.EvictedImages())
	}
	return s.table.MarshalBinary()
}

// Restore replaces the learned table with a Snapshot image (see
// Scheme.Restore).
func (s *Sharded) Restore(data []byte) error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if err := s.table.UnmarshalBinary(data); err != nil {
		return err
	}
	s.pager.Reset()
	s.pager.Enforce()
	s.syncPaging()
	return nil
}

// LookupLevels reports the average levels visited per lookup and the
// histogram of level counts (Figure 23a).
func (s *Sharded) LookupLevels() (avg float64, hist map[int]uint64) {
	hist = make(map[int]uint64)
	for i := range s.levelsHist {
		if n := s.levelsHist[i].Load(); n > 0 {
			hist[i] = n
		}
	}
	n := s.lookups.Load()
	if n == 0 {
		return 0, hist
	}
	return float64(s.levelsSum.Load()) / float64(n), hist
}

// SegmentsPerBatch reports the average number of segments learned per
// committed batch.
func (s *Sharded) SegmentsPerBatch() float64 {
	b := s.batchCount.Load()
	if b == 0 {
		return 0
	}
	return float64(s.segLearned.Load()) / float64(b)
}

var (
	_ ftl.Scheme        = (*Sharded)(nil)
	_ ftl.Concurrent    = (*Sharded)(nil)
	_ ftl.Gamma         = (*Sharded)(nil)
	_ ftl.GroupPaged    = (*Sharded)(nil)
	_ ftl.MissReporter  = (*Sharded)(nil)
	_ ftl.AdaptiveGamma = (*Sharded)(nil)
	_ ftl.GCRelearner   = (*Sharded)(nil)
	_ ftl.ExactAuditor  = (*Sharded)(nil)
	_ ftl.Journaled     = (*Sharded)(nil)
)
