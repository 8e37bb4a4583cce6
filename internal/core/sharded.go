package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"leaftl/internal/addr"
)

// ShardedTable partitions the learned mapping table into N independently
// locked shards, keyed by a hash of the 256-LPA group ID. Every group's
// state (level stack + CRB) lives wholly inside one shard and groups are
// fully independent in Table, so a ShardedTable fed the same batches as a
// plain Table produces bit-identical translations — sharding only changes
// who may run concurrently.
//
// Lookups take a shard read lock (Table.Lookup touches no mutation
// scratch), so independent host streams translate in parallel; updates
// take the owning shard's write lock. This is the concurrency structure
// LFTL (arXiv:1302.5502) argues an FTL needs to exploit parallel-IO
// flash hardware, applied to LeaFTL's learned core.
type ShardedTable struct {
	gamma    int
	bitmapOn bool
	shards   []*tableShard
}

type tableShard struct {
	mu sync.RWMutex
	// pad the mutex+table onto its own cache line so shard locks do not
	// false-share under concurrent streams.
	_   [40]byte
	tab *Table
}

// NewShardedTable returns an empty sharded table with the given error
// bound and shard count (values < 1 are clamped to 1).
func NewShardedTable(gamma, shards int) *ShardedTable {
	if shards < 1 {
		shards = 1
	}
	if gamma < 0 {
		gamma = 0
	}
	st := &ShardedTable{gamma: gamma, shards: make([]*tableShard, shards)}
	for i := range st.shards {
		st.shards[i] = &tableShard{tab: NewTable(gamma)}
	}
	return st
}

// Gamma returns the table's error bound.
func (s *ShardedTable) Gamma() int { return s.gamma }

// EnableExactBitmap turns on predicted-exact bitmap maintenance in every
// shard (see Table.EnableExactBitmap). Decisions are per group, so the
// bitmaps are bit-identical to a plain table fed the same traffic.
func (s *ShardedTable) EnableExactBitmap() {
	s.bitmapOn = true
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.tab.EnableExactBitmap()
		sh.mu.Unlock()
	}
}

// ExactBitmapEnabled reports whether the shards maintain predicted-exact
// bitmaps.
func (s *ShardedTable) ExactBitmapEnabled() bool { return s.bitmapOn }

// Shards returns the shard count.
func (s *ShardedTable) Shards() int { return len(s.shards) }

// shardFor maps a group to its shard. Group IDs are Fibonacci-hashed so
// strided access patterns cannot pile onto one shard.
func (s *ShardedTable) shardFor(g addr.GroupID) *tableShard {
	h := uint64(g) * 0x9E3779B97F4A7C15
	return s.shards[(h>>32)%uint64(len(s.shards))]
}

// Lookup translates lpa (see Table.Lookup). Safe for concurrent use with
// other Lookups and Updates.
func (s *ShardedTable) Lookup(lpa addr.LPA) (addr.PPA, LookupResult, bool) {
	sh := s.shardFor(addr.Group(lpa))
	sh.mu.RLock()
	ppa, res, ok := sh.tab.Lookup(lpa)
	sh.mu.RUnlock()
	return ppa, res, ok
}

// Update learns and inserts a batch (see Table.Update). pairs are split
// into maximal same-shard runs — shard boundaries are group boundaries,
// so per-group learning is identical to the unsharded path.
func (s *ShardedTable) Update(pairs []addr.Mapping) int {
	n := 0
	for i := 0; i < len(pairs); {
		sh := s.shardFor(addr.Group(pairs[i].LPA))
		j := i + 1
		for j < len(pairs) && s.shardFor(addr.Group(pairs[j].LPA)) == sh {
			j++
		}
		sh.mu.Lock()
		n += sh.tab.Update(pairs[i:j])
		sh.mu.Unlock()
		i = j
	}
	return n
}

// Relearn commits a GC relocation batch (see Table.Relearn). pairs are
// split into maximal same-shard runs; group runs never cross shard
// boundaries, so the fits are identical to the unsharded path.
func (s *ShardedTable) Relearn(pairs []addr.Mapping) (segs, groups int) {
	for i := 0; i < len(pairs); {
		sh := s.shardFor(addr.Group(pairs[i].LPA))
		j := i + 1
		for j < len(pairs) && s.shardFor(addr.Group(pairs[j].LPA)) == sh {
			j++
		}
		sh.mu.Lock()
		sg, gr := sh.tab.Relearn(pairs[i:j])
		sh.mu.Unlock()
		segs += sg
		groups += gr
		i = j
	}
	return segs, groups
}

// Insert places one learned segment (see Table.Insert).
func (s *ShardedTable) Insert(ls Learned) {
	sh := s.shardFor(ls.Seg.Group())
	sh.mu.Lock()
	sh.tab.Insert(ls)
	sh.mu.Unlock()
}

// Compact compacts every shard, in parallel (paper §3.7; compaction is
// the natural point to spend all cores, it runs off the host path).
func (s *ShardedTable) Compact() { s.CompactChanged() }

// SizeBytes sums the shards' DRAM footprints. O(shards).
func (s *ShardedTable) SizeBytes() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.tab.SizeBytes()
		sh.mu.RUnlock()
	}
	return n
}

// Stats aggregates the shards' incrementally maintained statistics.
func (s *ShardedTable) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.RLock()
		st := sh.tab.Stats()
		sh.mu.RUnlock()
		out.Groups += st.Groups
		out.Segments += st.Segments
		out.Accurate += st.Accurate
		out.Approximate += st.Approximate
		out.SegmentBytes += st.SegmentBytes
		out.CRBBytes += st.CRBBytes
		out.TotalLevels += st.TotalLevels
		if st.MaxLevels > out.MaxLevels {
			out.MaxLevels = st.MaxLevels
		}
	}
	return out
}

// LevelCounts concatenates every group's level count (Figure 12).
func (s *ShardedTable) LevelCounts() []int {
	var out []int
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.tab.LevelCounts()...)
		sh.mu.RUnlock()
	}
	return out
}

// CRBSizes concatenates every group's CRB size (Figure 10).
func (s *ShardedTable) CRBSizes() []int {
	var out []int
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.tab.CRBSizes()...)
		sh.mu.RUnlock()
	}
	return out
}

// SegmentLengths concatenates every segment's mapping count (Figure 5).
func (s *ShardedTable) SegmentLengths() []int {
	var out []int
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.tab.SegmentLengths()...)
		sh.mu.RUnlock()
	}
	return out
}

// NoteRead records translation feedback for lpa's group (see
// Table.NoteRead). It takes the owning shard's write lock, so it is safe
// against concurrent Lookups; the device serializes NoteRead calls
// themselves.
func (s *ShardedTable) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx bool) {
	sh := s.shardFor(addr.Group(lpa))
	sh.mu.Lock()
	sh.tab.NoteRead(lpa, predicted, actual, approx)
	sh.mu.Unlock()
}

// AuditExactBits verifies every shard's set predicted-exact bits against
// the ground-truth oracle (see Table.AuditExactBits).
func (s *ShardedTable) AuditExactBits(truth func(addr.LPA) (addr.PPA, bool)) error {
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := sh.tab.AuditExactBits(truth)
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckShape audits every shard's resident groups against the rebuild
// triggers' shape bound (see Table.CheckShape).
func (s *ShardedTable) CheckShape() error {
	for _, sh := range s.shards {
		sh.mu.RLock()
		err := sh.tab.CheckShape()
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// mergedView builds a plain-Table view over the shards' groups (shared,
// not copied). Callers must hold every shard's read lock for the
// duration of any use of the returned table.
func (s *ShardedTable) mergedView() *Table {
	merged := NewTable(s.gamma)
	for _, sh := range s.shards {
		sh.tab.eachGroup(func(id addr.GroupID, g *group) {
			for len(merged.groups) <= int(id) {
				merged.groups = append(merged.groups, nil)
			}
			merged.groups[id] = g
			merged.nGroups++
		})
		// Carry the size counters so MarshalBinary's SizeBytes-based
		// buffer preallocation works on the merged view.
		merged.nSegments += sh.tab.nSegments
		merged.crbBytes += sh.tab.crbBytes
	}
	return merged
}

// rlockAll takes every shard's read lock and returns the paired unlock.
func (s *ShardedTable) rlockAll() func() {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	return func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}
}

// MarshalBinary serializes the union of the shards in the plain Table
// snapshot format: a sharded and an unsharded table restore from each
// other's snapshots. All shard read locks are held for the duration.
func (s *ShardedTable) MarshalBinary() ([]byte, error) {
	defer s.rlockAll()()
	return s.mergedView().MarshalBinary()
}

// SnapshotWith serializes the union of the shards plus evicted-group
// images (see Table.SnapshotWith).
func (s *ShardedTable) SnapshotWith(images map[addr.GroupID][]byte) ([]byte, error) {
	defer s.rlockAll()()
	return s.mergedView().SnapshotWith(images)
}

// CompactChanged compacts every shard in parallel (like Compact) and
// returns the IDs of the groups whose encoding changed, in ascending
// order (see Table.CompactChanged).
func (s *ShardedTable) CompactChanged() []addr.GroupID {
	var wg sync.WaitGroup
	changed := make([][]addr.GroupID, len(s.shards))
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *tableShard) {
			defer wg.Done()
			sh.mu.Lock()
			changed[i] = sh.tab.CompactChanged()
			sh.mu.Unlock()
		}(i, sh)
	}
	wg.Wait()
	var out []addr.GroupID
	for _, c := range changed {
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groupStore implementation: the sharded table is pageable through the
// same surface as the plain table, locking the owning shard per call.
// A Pager drives exactly one of these methods at a time (paging is
// serialized by the scheme), so cross-shard aggregate reads like
// residentBytes need no global lock.

func (s *ShardedTable) hasGroup(id addr.GroupID) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.HasGroup(id)
}

func (s *ShardedTable) groupFootprint(id addr.GroupID) int {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.GroupFootprint(id)
}

// residentGroups returns all shards' groups in ascending order — the
// same enumeration a plain Table produces, so pager adoption order (and
// with it every later CLOCK decision) is shard-count independent.
func (s *ShardedTable) residentGroups() []addr.GroupID {
	var out []addr.GroupID
	for _, sh := range s.shards {
		sh.mu.RLock()
		out = append(out, sh.tab.ResidentGroups()...)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *ShardedTable) marshalGroup(id addr.GroupID) ([]byte, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.tab.MarshalGroup(id)
}

func (s *ShardedTable) installGroup(data []byte) (addr.GroupID, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("core: group record too short")
	}
	// The record leads with its group id; peek it to pick the shard.
	gid := addr.GroupID(binary.LittleEndian.Uint32(data))
	sh := s.shardFor(gid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tab.InstallGroup(data)
}

func (s *ShardedTable) dropGroup(id addr.GroupID) (int, bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tab.DropGroup(id)
}

func (s *ShardedTable) residentBytes() int { return s.SizeBytes() }

var _ groupStore = (*ShardedTable)(nil)

// UnmarshalBinary replaces the shards' contents with a snapshot written
// by either table flavor. The shard count is preserved.
func (s *ShardedTable) UnmarshalBinary(data []byte) error {
	tmp := NewTable(0)
	if err := tmp.UnmarshalBinary(data); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()

	s.gamma = tmp.Gamma()
	for _, sh := range s.shards {
		sh.tab = NewTable(s.gamma)
		if s.bitmapOn {
			sh.tab.EnableExactBitmap()
		}
	}
	tmp.eachGroup(func(id addr.GroupID, g *group) {
		tab := s.shardFor(id).tab
		for len(tab.groups) <= int(id) {
			tab.groups = append(tab.groups, nil)
		}
		tab.groups[id] = g
	})
	for _, sh := range s.shards {
		sh.tab.recomputeStats()
	}
	return nil
}
