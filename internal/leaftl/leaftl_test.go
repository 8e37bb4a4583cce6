package leaftl

import (
	"reflect"
	"testing"

	"leaftl/internal/addr"
)

// newScheme returns New's scheme with its journal configured as device
// wiring would (64-page translation blocks under a 4096-page cap), so it
// can persist groups without a device.
func newScheme(gamma, pageSize int, opts ...Option) *Scheme {
	s := New(gamma, pageSize, opts...)
	s.ConfigureJournal(64, 4096)
	return s
}

func seq(start addr.LPA, ppa addr.PPA, n int) []addr.Mapping {
	out := make([]addr.Mapping, n)
	for i := 0; i < n; i++ {
		out[i] = addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa + addr.PPA(i)}
	}
	return out
}

func TestSchemeTranslate(t *testing.T) {
	s := New(0, 4096)
	s.Commit(seq(0, 100, 256))
	tr, ok := s.Translate(10)
	if !ok || tr.PPA != 110 || tr.Approx {
		t.Fatalf("Translate(10) = %+v, %v", tr, ok)
	}
	if _, ok := s.Translate(9999); ok {
		t.Error("unmapped LPA translated")
	}
	if s.Name() != "LeaFTL" || s.Gamma() != 0 {
		t.Errorf("name/gamma = %s/%d", s.Name(), s.Gamma())
	}
}

func TestSchemeMemorySmallOnSequential(t *testing.T) {
	s := New(0, 4096)
	for b := 0; b < 64; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	// 64 blocks × 256 pages = 16384 mappings; DFTL would need 128KB.
	if s.MemoryBytes() > 1024 {
		t.Errorf("sequential mapping used %d bytes", s.MemoryBytes())
	}
	if s.FullSizeBytes() != s.MemoryBytes() {
		t.Error("resident table: full size must equal memory")
	}
}

func TestSchemeMaintainCompacts(t *testing.T) {
	s := newScheme(0, 4096, WithCompactEvery(100))
	for i := 0; i < 20; i++ {
		s.Commit(seq(0, addr.PPA(1000*i), 128))
	}
	s.Maintain(100) // interval reached
	appended := s.JournalStats().Appends
	if appended == 0 {
		t.Error("maintenance did not persist the table")
	}
	if c := s.Maintain(150); c.MetaWrites != 0 || s.JournalStats().Appends != appended {
		t.Error("maintenance re-ran before the interval elapsed")
	}
	tr, ok := s.Translate(5)
	if !ok || tr.PPA != addr.PPA(1000*19+5) {
		t.Fatalf("post-compaction Translate(5) = %+v, %v", tr, ok)
	}
}

func TestSchemeStatsCounters(t *testing.T) {
	s := New(4, 4096)
	s.Commit(seq(0, 0, 64))
	for i := 0; i < 10; i++ {
		s.Translate(addr.LPA(i))
	}
	avg, hist := s.LookupLevels()
	if avg < 1 {
		t.Errorf("avg levels = %v", avg)
	}
	if len(hist) == 0 {
		t.Error("empty level histogram")
	}
	if s.Table() == nil {
		t.Error("table accessor nil")
	}
}

// TestLookupLevelsReturnsCopy pins that LookupLevels hands out a fresh map:
// a caller writing to the histogram it got (experiments.Run keeps it as
// the run's LookupHist) must not change what the scheme reports next.
func TestLookupLevelsReturnsCopy(t *testing.T) {
	s := New(4, 4096)
	s.Commit(seq(0, 0, 64))
	for i := 0; i < 10; i++ {
		s.Translate(addr.LPA(i))
	}
	avg, hist := s.LookupLevels()
	want := make(map[int]uint64, len(hist))
	for lvl, n := range hist {
		want[lvl] = n
	}
	for lvl := range hist {
		hist[lvl] += 1000
	}
	hist[99] = 7
	avg2, again := s.LookupLevels()
	if avg2 != avg || !reflect.DeepEqual(again, want) {
		t.Errorf("after writing to the returned map: LookupLevels = %v, %v; want %v, %v", avg2, again, avg, want)
	}
	var total uint64
	for _, n := range again {
		total += n
	}
	if total != 10 {
		t.Errorf("histogram counts %d lookups, want 10", total)
	}
}
