// Package gencache is the bounded map of derived state: entries that can
// always be derived or fetched again (a zone's materialized records and
// memoized signatures, a resolver's answers, zone cuts and ledgers), held
// by recency rather than forever.
package gencache

// Cache bounds its entries by recency in two generations. Put stores into
// the current generation; once the current generation holds span entries,
// the next Put makes it the previous one and drops what was previous. A Get
// that hits the previous generation moves the entry forward, so what keeps
// being asked for is never dropped, and what is asked for once is gone two
// generations later. A Cache holds at most 2*span entries; rotation clears
// and reuses the two maps, which are allocated on first Put. Make one with
// New. A Cache is not safe for concurrent use, except that Peek, Len and
// Each may run concurrently with each other.
type Cache[K comparable, V any] struct {
	cur, prev map[K]V
	span      int
}

// New returns an empty Cache whose generations take span inserts each
// (at least one).
func New[K comparable, V any](span int) Cache[K, V] {
	return Cache[K, V]{span: max(span, 1)}
}

// Get returns the value under k, moving an entry of the previous
// generation into the current one.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	v, ok := c.prev[k]
	if ok {
		c.Put(k, v)
	}
	return v, ok
}

// Peek returns the value under k and moves nothing.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	v, ok := c.prev[k]
	return v, ok
}

// Put stores v under k in the current generation, rotating first when it
// is full.
func (c *Cache[K, V]) Put(k K, v V) {
	if len(c.cur) >= c.span {
		c.cur, c.prev = c.prev, c.cur
		clear(c.cur)
	}
	if c.cur == nil {
		c.cur = make(map[K]V)
	}
	c.cur[k] = v
	delete(c.prev, k)
}

// Delete drops k.
func (c *Cache[K, V]) Delete(k K) {
	delete(c.cur, k)
	delete(c.prev, k)
}

// Len counts the entries held; a key lives in one generation at a time.
func (c *Cache[K, V]) Len() int { return len(c.cur) + len(c.prev) }

// Each visits every entry held, in no particular order.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	for k, v := range c.cur {
		fn(k, v)
	}
	for k, v := range c.prev {
		fn(k, v)
	}
}
