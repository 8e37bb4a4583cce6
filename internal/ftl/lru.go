package ftl

// ByteLRU is a least-recently-used cache whose capacity is a byte budget
// rather than an entry count, because cached items have different sizes
// (a DFTL mapping entry is 8 bytes, a compressed SFTL region is
// runs×8 bytes, a cached data page is the flash page size).
//
// Entries carry a dirty flag; evicting a dirty entry is reported to the
// caller so it can charge a writeback.
//
// Keys are small integers (logical page addresses, region numbers), so
// the key → slot index is a dense slice indexed by key rather than a
// hash map: a lookup is one bounds check and one load, and the index
// grows by doubling to the largest key inserted. The entries live in one
// node arena linked by int32 indices, with a free list of evicted slots,
// and the evictions an operation reports are written into a buffer the
// cache owns. Once the index and the arena have grown to the cache's key
// range and working set, inserting, touching and evicting allocate
// nothing.
type ByteLRU[K ~uint32, V any] struct {
	budget int
	used   int
	// index[k] is 1 + the arena slot holding key k, or 0 when k is not
	// cached.
	index []int32
	count int
	nodes []lruNode[K, V]
	head  int32 // most recently used, or nilNode
	tail  int32 // least recently used, or nilNode
	free  int32 // first recycled slot (linked through next), or nilNode
	// evicted backs the slice Put and Resize return.
	evicted []Evicted[K, V]
}

// nilNode terminates the recency list and the free list.
const nilNode int32 = -1

type lruNode[K ~uint32, V any] struct {
	key        K
	value      V
	size       int
	prev, next int32
	dirty      bool
}

// Evicted describes one entry pushed out by an insert or budget change.
type Evicted[K ~uint32, V any] struct {
	Key   K
	Value V
	Dirty bool
}

// NewByteLRU returns an empty cache with the given byte budget.
func NewByteLRU[K ~uint32, V any](budget int) *ByteLRU[K, V] {
	if budget < 0 {
		budget = 0
	}
	return &ByteLRU[K, V]{
		budget: budget,
		head:   nilNode,
		tail:   nilNode,
		free:   nilNode,
	}
}

// Budget returns the configured byte budget.
func (c *ByteLRU[K, V]) Budget() int { return c.budget }

// Used returns the bytes currently occupied.
func (c *ByteLRU[K, V]) Used() int { return c.used }

// Len returns the number of cached entries.
func (c *ByteLRU[K, V]) Len() int { return c.count }

// slot returns key's arena slot, or nilNode when it is not cached.
func (c *ByteLRU[K, V]) slot(key K) int32 {
	if uint64(key) >= uint64(len(c.index)) {
		return nilNode
	}
	return c.index[key] - 1
}

// Get returns the value for key, marking it most recently used.
func (c *ByteLRU[K, V]) Get(key K) (V, bool) {
	i := c.slot(key)
	if i == nilNode {
		var zero V
		return zero, false
	}
	c.moveToFront(i)
	return c.nodes[i].value, true
}

// Peek returns the value without touching recency.
func (c *ByteLRU[K, V]) Peek(key K) (V, bool) {
	i := c.slot(key)
	if i == nilNode {
		var zero V
		return zero, false
	}
	return c.nodes[i].value, true
}

// Contains reports presence without touching recency.
func (c *ByteLRU[K, V]) Contains(key K) bool {
	return c.slot(key) != nilNode
}

// Put inserts or updates key with the given size and dirtiness, returning
// any entries evicted to fit the budget, least recently used first. An
// item larger than the whole budget is not cached (and is returned as if
// immediately evicted when dirty, so writeback accounting still happens).
//
// The returned slice is borrowed: it is valid until the cache's next Put
// or Resize, which reuse its backing array.
func (c *ByteLRU[K, V]) Put(key K, value V, size int, dirty bool) []Evicted[K, V] {
	c.evicted = c.evicted[:0]
	if i := c.slot(key); i != nilNode {
		n := &c.nodes[i]
		c.used += size - n.size
		n.value, n.size = value, size
		n.dirty = n.dirty || dirty
		c.moveToFront(i)
		return c.shrink()
	}
	if size > c.budget {
		if dirty {
			c.evicted = append(c.evicted, Evicted[K, V]{Key: key, Value: value, Dirty: true})
		}
		return c.evicted
	}
	i := c.alloc()
	c.nodes[i] = lruNode[K, V]{key: key, value: value, size: size, dirty: dirty}
	c.setSlot(key, i)
	c.count++
	c.pushFront(i)
	c.used += size
	return c.shrink()
}

// CleanMatching clears the dirty flag of every entry for which match
// returns true, returning how many were cleaned. DFTL uses this for its
// batched translation-page writeback: one flash write cleans every
// cached entry of that translation page. It never touches the eviction
// buffer, so it may run while the caller ranges over Put's result.
func (c *ByteLRU[K, V]) CleanMatching(match func(K) bool) int {
	n := 0
	for i := c.head; i != nilNode; i = c.nodes[i].next {
		if nd := &c.nodes[i]; nd.dirty && match(nd.key) {
			nd.dirty = false
			n++
		}
	}
	return n
}

// Remove drops key, reporting the removed entry if present.
func (c *ByteLRU[K, V]) Remove(key K) (Evicted[K, V], bool) {
	i := c.slot(key)
	if i == nilNode {
		return Evicted[K, V]{}, false
	}
	return c.drop(i), true
}

// Resize changes the byte budget, evicting LRU entries as needed. The
// returned slice is borrowed, as Put's is.
func (c *ByteLRU[K, V]) Resize(budget int) []Evicted[K, V] {
	if budget < 0 {
		budget = 0
	}
	c.budget = budget
	c.evicted = c.evicted[:0]
	return c.shrink()
}

// shrink evicts from the tail into the eviction buffer until used ≤
// budget.
func (c *ByteLRU[K, V]) shrink() []Evicted[K, V] {
	for c.used > c.budget && c.tail != nilNode {
		c.evicted = append(c.evicted, c.drop(c.tail))
	}
	return c.evicted
}

// alloc returns a free arena slot, recycling an evicted one when it can.
func (c *ByteLRU[K, V]) alloc() int32 {
	if i := c.free; i != nilNode {
		c.free = c.nodes[i].next
		return i
	}
	c.nodes = append(c.nodes, lruNode[K, V]{})
	return int32(len(c.nodes) - 1)
}

// setSlot records that key lives in arena slot i, first doubling the index
// until it covers key.
func (c *ByteLRU[K, V]) setSlot(key K, i int32) {
	if uint64(key) >= uint64(len(c.index)) {
		n := max(2*len(c.index), 64)
		for uint64(n) <= uint64(key) {
			n *= 2
		}
		grown := make([]int32, n)
		copy(grown, c.index)
		c.index = grown
	}
	c.index[key] = i + 1
}

// drop unlinks slot i, removes its key and returns the slot to the free
// list, reporting what it held.
func (c *ByteLRU[K, V]) drop(i int32) Evicted[K, V] {
	c.unlink(i)
	n := &c.nodes[i]
	ev := Evicted[K, V]{Key: n.key, Value: n.value, Dirty: n.dirty}
	c.index[n.key] = 0
	c.count--
	c.used -= n.size
	*n = lruNode[K, V]{next: c.free}
	c.free = i
	return ev
}

func (c *ByteLRU[K, V]) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = nilNode
	n.next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == nilNode {
		c.tail = i
	}
}

func (c *ByteLRU[K, V]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
}

func (c *ByteLRU[K, V]) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
