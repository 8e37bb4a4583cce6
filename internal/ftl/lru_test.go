package ftl

import (
	"math/rand"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := NewByteLRU[uint32, string](100)
	c.Put(1, "a", 40, false)
	c.Put(2, "b", 40, false)
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	// 1 is now MRU; inserting 60 bytes evicts 2.
	ev := c.Put(3, "c", 60, false)
	if len(ev) != 1 || ev[0].Key != 2 {
		t.Fatalf("evicted %v, want key 2", ev)
	}
	if c.Used() != 100 || c.Len() != 2 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestLRUDirtyEviction(t *testing.T) {
	c := NewByteLRU[uint32, int](16)
	c.Put(1, 1, 8, true)
	c.Put(2, 2, 8, false)
	ev := c.Put(3, 3, 8, false)
	if len(ev) != 1 || !ev[0].Dirty || ev[0].Key != 1 {
		t.Fatalf("evictions = %+v", ev)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := NewByteLRU[uint32, int](32)
	c.Put(1, 10, 8, false)
	c.Put(1, 11, 16, true)
	if c.Used() != 16 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
	if v, _ := c.Peek(1); v != 11 {
		t.Errorf("value = %d", v)
	}
	// Updated entry keeps dirtiness until cleaned.
	if n := c.CleanMatching(func(uint32) bool { return true }); n != 1 {
		t.Errorf("cleaned %d", n)
	}
}

func TestLRUOversizeItem(t *testing.T) {
	c := NewByteLRU[uint32, int](10)
	ev := c.Put(1, 1, 20, true)
	if c.Len() != 0 {
		t.Error("oversize item cached")
	}
	if len(ev) != 1 || !ev[0].Dirty {
		t.Errorf("oversize dirty item must report writeback: %v", ev)
	}
}

func TestLRUResize(t *testing.T) {
	c := NewByteLRU[uint32, int](100)
	for i := uint32(0); i < 10; i++ {
		c.Put(i, int(i), 10, false)
	}
	ev := c.Resize(35)
	if len(ev) != 7 {
		t.Fatalf("evicted %d, want 7", len(ev))
	}
	// Survivors are the three most recently used: 7, 8, 9.
	for _, k := range []uint32{7, 8, 9} {
		if !c.Contains(k) {
			t.Errorf("key %d missing after resize", k)
		}
	}
}

func TestLRURemove(t *testing.T) {
	c := NewByteLRU[uint32, int](100)
	c.Put(1, 1, 10, true)
	ev, ok := c.Remove(1)
	if !ok || !ev.Dirty || c.Len() != 0 || c.Used() != 0 {
		t.Errorf("remove: %+v ok=%v len=%d used=%d", ev, ok, c.Len(), c.Used())
	}
	if _, ok := c.Remove(1); ok {
		t.Error("second remove succeeded")
	}
}

// lruModel is the trivially-correct reference ByteLRU: a slice of entries
// in recency order, most recently used first, searched linearly.
type lruModel struct {
	budget int
	order  []modelEntry
}

type modelEntry struct {
	key         uint32
	value, size int
	dirty       bool
}

func (m *lruModel) find(k uint32) int {
	for i, e := range m.order {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (m *lruModel) used() int {
	u := 0
	for _, e := range m.order {
		u += e.size
	}
	return u
}

// take removes entry i from the recency list and returns it.
func (m *lruModel) take(i int) modelEntry {
	e := m.order[i]
	m.order = append(m.order[:i], m.order[i+1:]...)
	return e
}

func (m *lruModel) front(e modelEntry) {
	m.order = append([]modelEntry{e}, m.order...)
}

func (m *lruModel) shrink() []Evicted[uint32, int] {
	var out []Evicted[uint32, int]
	for m.used() > m.budget && len(m.order) > 0 {
		e := m.take(len(m.order) - 1)
		out = append(out, Evicted[uint32, int]{Key: e.key, Value: e.value, Dirty: e.dirty})
	}
	return out
}

func (m *lruModel) put(k uint32, v, size int, dirty bool) []Evicted[uint32, int] {
	if i := m.find(k); i >= 0 {
		e := m.take(i)
		e.value, e.size, e.dirty = v, size, e.dirty || dirty
		m.front(e)
		return m.shrink()
	}
	if size > m.budget {
		if dirty {
			return []Evicted[uint32, int]{{Key: k, Value: v, Dirty: true}}
		}
		return nil
	}
	m.front(modelEntry{key: k, value: v, size: size, dirty: dirty})
	return m.shrink()
}

// TestLRUMatchesReferenceModel drives random Put/Get/Peek/Remove/Resize/
// CleanMatching sequences — oversize items, dirty and clean
// entries and a zero budget included — against lruModel, and after every
// operation compares the evictions (key, value, dirty, order), Used, Len
// and the presence and value of every key drawn so far. Most keys come
// from a small dense range. Up to 64 times a run, about one draw in
// eight, the key is a fresh sparse one far above the index's current
// length, so the dense index grows mid-run while entries are cached,
// evicted and removed around it; another one in eight repeats a key drawn
// before.
func TestLRUMatchesReferenceModel(t *testing.T) {
	const keys = 24
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewByteLRU[uint32, int](64)
		m := &lruModel{budget: 64}
		drawn := make([]uint32, 0, keys+64)
		for k := uint32(0); k < keys; k++ {
			drawn = append(drawn, k)
		}
		for step := 0; step < 4000; step++ {
			k := uint32(rng.Intn(keys))
			switch {
			case rng.Intn(8) == 0 && len(drawn) < cap(drawn):
				// A fresh key two to four times the index's current
				// length, so the index must grow to admit it, until the
				// index spans 2^18 keys; sparse keys below that after.
				n := uint32(max(len(c.index), keys))
				k = n*uint32(2+rng.Intn(3)) + uint32(rng.Intn(64))
				if n >= 1<<18 {
					k = uint32(rng.Intn(1 << 18))
				}
				drawn = append(drawn, k)
			case rng.Intn(8) == 0:
				k = drawn[rng.Intn(len(drawn))]
			}
			var got, want []Evicted[uint32, int]
			switch op := rng.Intn(10); op {
			case 0, 1, 2:
				// Up to twice the budget, so oversize items come up.
				v, size, dirty := rng.Int(), 1+rng.Intn(2*m.budget+1), rng.Intn(2) == 0
				if rng.Intn(4) != 0 {
					size = 1 + rng.Intn(16)
				}
				got, want = c.Put(k, v, size, dirty), m.put(k, v, size, dirty)
			case 3:
				v, ok := c.Get(k)
				i := m.find(k)
				if ok != (i >= 0) || (ok && v != m.order[i].value) {
					t.Fatalf("seed %d step %d: Get(%d) = %d,%v, model index %d", seed, step, k, v, ok, i)
				}
				if i >= 0 {
					m.front(m.take(i))
				}
			case 4:
				v, ok := c.Peek(k)
				if i := m.find(k); ok != (i >= 0) || (ok && v != m.order[i].value) {
					t.Fatalf("seed %d step %d: Peek(%d) = %d,%v, model index %d", seed, step, k, v, ok, i)
				}
			case 5:
				ev, ok := c.Remove(k)
				i := m.find(k)
				if ok != (i >= 0) {
					t.Fatalf("seed %d step %d: Remove(%d) ok=%v, model index %d", seed, step, k, ok, i)
				}
				if ok {
					e := m.take(i)
					got = []Evicted[uint32, int]{ev}
					want = []Evicted[uint32, int]{{Key: e.key, Value: e.value, Dirty: e.dirty}}
				}
			case 6:
				b := rng.Intn(129)
				if rng.Intn(5) == 0 {
					b = 0
				}
				m.budget = b
				got, want = c.Resize(b), m.shrink()
			default:
				mod := 2 + rng.Intn(4)
				match := func(k uint32) bool { return k%uint32(mod) == 0 }
				wantN := 0
				for i := range m.order {
					if m.order[i].dirty && match(m.order[i].key) {
						m.order[i].dirty = false
						wantN++
					}
				}
				if n := c.CleanMatching(match); n != wantN {
					t.Fatalf("seed %d step %d: CleanMatching cleaned %d, model %d", seed, step, n, wantN)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: evicted %v, model %v", seed, step, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d: eviction %d = %+v, model %+v", seed, step, i, got[i], want[i])
				}
			}
			if c.Used() != m.used() || c.Len() != len(m.order) || c.Budget() != m.budget {
				t.Fatalf("seed %d step %d: used=%d len=%d budget=%d, model %d/%d/%d",
					seed, step, c.Used(), c.Len(), c.Budget(), m.used(), len(m.order), m.budget)
			}
			for _, key := range drawn {
				v, ok := c.Peek(key)
				if i := m.find(key); ok != (i >= 0) || (ok && v != m.order[i].value) {
					t.Fatalf("seed %d step %d: key %d cached=%v value %d, model index %d", seed, step, key, ok, v, i)
				}
			}
		}
		if len(c.index) < 1<<18 {
			t.Errorf("seed %d: index grew to %d keys, want the run to reach 2^18", seed, len(c.index))
		}
	}
}

// TestLRUEvictingPutZeroAllocs pins the arena and the dense index: once
// the index has grown to the key range, an insert that evicts recycles
// the victim's node, clears and sets index entries in place and reports
// the victim through the cache-owned buffer, so it allocates nothing.
func TestLRUEvictingPutZeroAllocs(t *testing.T) {
	const distinct, stride = 4096, 256 // keys 0, 256, …, ~2^20
	c := NewByteLRU[uint32, uint64](64 * 8)
	next := uint32(0)
	put := func() {
		key := next % distinct * stride
		if ev := c.Put(key, uint64(next), 8, next%3 == 0); len(ev) > 1 {
			t.Fatalf("Put evicted %d entries, want at most 1", len(ev))
		}
		next++
	}
	for i := 0; i < distinct; i++ {
		put() // fill the arena and grow the index to the largest key
	}
	if avg := testing.AllocsPerRun(distinct, put); avg != 0 {
		t.Errorf("evicting Put: %v allocs, want 0", avg)
	}
}
