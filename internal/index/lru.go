package index

import "sync"

// byteLRU is a byte-budgeted least-recently-used cache with per-key
// singleflight: the one cache implementation behind the run pager and the
// term cache. Each entry carries a cost in bytes, supplied with its value;
// when the cost of the resident entries exceeds the budget, the
// least-recently-used ones are dropped, never the entry just added, so
// the cache always keeps the most recent value even when it alone
// exceeds the budget.
//
// Locking: one mutex guards the entry map, the LRU list and the totals. A
// miss inserts a pending entry and computes the value outside the lock;
// concurrent gets of the same key wait on that entry rather than compute
// it again. A failed computation caches nothing: the get that ran it and
// its waiters see the error, and the next get retries. An entry's value
// is written once, before its ready channel is closed, and never again,
// so a reader keeps a consistent value the cache drops meanwhile.
type byteLRU[K comparable, V any] struct {
	budget int64 // in bytes; always > 0
	// onResize, when set, is told every change of the resident cost. It
	// runs under the lock, so a caller that mirrors the cost into a gauge
	// and swaps that gauge inside withUsed neither loses nor doubles a
	// change.
	onResize func(delta int64)

	mu       sync.Mutex
	entries  map[K]*lruEntry[K, V] // guarded by mu: resident and pending entries
	head     lruEntry[K, V]        // guarded by mu: sentinel; head.next is the most recently used entry
	used     int64                 // guarded by mu: cost of the resident entries
	resident int                   // guarded by mu: resident entry count
}

// lruEntry is one key in the cache: pending while its first get computes
// it (ready open, not linked), then resident (linked into the LRU list)
// until dropped.
type lruEntry[K comparable, V any] struct {
	key        K
	prev, next *lruEntry[K, V] // LRU links, nil while pending or once dropped
	ready      chan struct{}
	val        V
	cost       int64
	err        error
}

// lruGet reports how a get was served.
type lruGet struct {
	// hit reports that the get was answered with a value it did not
	// compute: false for the get that computed the value, and for every
	// get that failed, waiters on a failed computation included.
	hit bool
	// dropped counts the entries evicted to make room for a computed one.
	dropped int
}

// newByteLRU returns an empty cache under the given budget (> 0); onResize
// may be nil.
func newByteLRU[K comparable, V any](budget int64, onResize func(delta int64)) *byteLRU[K, V] {
	return &byteLRU[K, V]{budget: budget, onResize: onResize, entries: make(map[K]*lruEntry[K, V])}
}

// get returns k's value: the resident one, or else the one fetch computes
// together with its cost in bytes, once however many goroutines ask for k
// at the same time.
func (c *byteLRU[K, V]) get(k K, fetch func() (V, int64, error)) (V, lruGet, error) {
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		if e.next != nil { // resident
			c.unlinkLocked(e)
			c.pushFrontLocked(e)
			v := e.val
			c.mu.Unlock()
			return v, lruGet{hit: true}, nil
		}
		ready := e.ready
		c.mu.Unlock()
		<-ready
		return e.val, lruGet{hit: e.err == nil}, e.err
	}
	e := &lruEntry[K, V]{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.mu.Unlock()

	v, cost, err := fetch()

	c.mu.Lock()
	if err != nil {
		delete(c.entries, k)
		e.err = err
		c.mu.Unlock()
		close(e.ready)
		var zero V
		return zero, lruGet{}, err
	}
	e.val, e.cost = v, cost
	c.pushFrontLocked(e)
	c.used += cost
	c.resident++
	delta, dropped := cost, 0
	for c.used > c.budget && c.head.prev != e {
		old := c.head.prev
		c.unlinkLocked(old)
		delete(c.entries, old.key)
		c.used -= old.cost
		c.resident--
		delta -= old.cost
		dropped++
	}
	if c.onResize != nil {
		c.onResize(delta)
	}
	c.mu.Unlock()
	close(e.ready)
	return v, lruGet{dropped: dropped}, nil
}

// withUsed runs fn under the lock with the resident cost (see onResize).
func (c *byteLRU[K, V]) withUsed(fn func(used int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.used)
}

// stats returns the resident cost and entry count.
func (c *byteLRU[K, V]) stats() (used int64, resident int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, c.resident
}

// pushFrontLocked links e as the most recently used entry.
func (c *byteLRU[K, V]) pushFrontLocked(e *lruEntry[K, V]) {
	if c.head.next == nil { // first link: close the empty ring
		c.head.prev, c.head.next = &c.head, &c.head
	}
	e.prev, e.next = &c.head, c.head.next
	e.prev.next, e.next.prev = e, e
}

// unlinkLocked removes e from the LRU list.
func (c *byteLRU[K, V]) unlinkLocked(e *lruEntry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}
