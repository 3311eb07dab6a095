package zone

// genCacheSpan is how many inserts one generation of a genCache takes. A
// zone re-asks for derived state only within one resolution — the DS query
// that follows a referral by microseconds — so the span need only outlast
// the resolutions in flight; it does not scale with the zone's population.
const genCacheSpan = 2048

// genCache holds lazily derived zone state (materialized records, memoized
// signatures) that can always be derived again, bounded by recency: entries
// go into the current generation; after genCacheSpan inserts the current
// generation becomes the previous one and what was previous is dropped. A
// hit in the previous generation moves the entry forward, so what keeps
// being asked for (the apex SOA signature, pool glue) is never dropped, and
// what is asked for once is gone two generations later. It holds at most
// 2*genCacheSpan entries; rotation clears and reuses the two maps. The zero
// value is an empty cache that allocates on first put.
type genCache[K comparable, V any] struct {
	cur, prev map[K]V
}

// genCacheCap is the most entries a genCache ever holds.
const genCacheCap = 2 * genCacheSpan

func (c *genCache[K, V]) get(k K) (V, bool) {
	if v, ok := c.cur[k]; ok {
		return v, true
	}
	v, ok := c.prev[k]
	if ok {
		c.put(k, v)
	}
	return v, ok
}

func (c *genCache[K, V]) put(k K, v V) {
	if len(c.cur) >= genCacheSpan {
		c.cur, c.prev = c.prev, c.cur
		clear(c.cur)
	}
	if c.cur == nil {
		c.cur = make(map[K]V)
	}
	c.cur[k] = v
	delete(c.prev, k)
}

func (c *genCache[K, V]) delete(k K) {
	delete(c.cur, k)
	delete(c.prev, k)
}

// len counts the entries held; a key lives in one generation at a time.
func (c *genCache[K, V]) len() int { return len(c.cur) + len(c.prev) }

// each visits every entry held, in no particular order.
func (c *genCache[K, V]) each(fn func(K, V)) {
	for k, v := range c.cur {
		fn(k, v)
	}
	for k, v := range c.prev {
		fn(k, v)
	}
}
