package resolver

import (
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// CacheLimits bounds every piece of per-resolver cache state. Zero fields
// take defaults sized so the seed-era behavior is unchanged (the defaults
// never trip in the test suite); million-domain sweeps pass tighter limits
// so a worker's memory stays proportional to its cache bound, not to the
// population.
type CacheLimits struct {
	// Answers bounds the positive and negative answer caches (entries
	// each). Default 1<<21, the historical cap.
	Answers int
	// Delegations bounds the referral (zone-cut) cache. Default 1<<20.
	Delegations int
	// Zones bounds the per-zone validation outcomes and the NS-completion
	// ledger. Default 1<<20.
	Zones int
	// Servers bounds the first-contact server ledger (PTR sampling).
	// Default 1<<20.
	Servers int
	// Spans bounds each zone's validated NSEC span store. Default 1<<20.
	Spans int
}

// Cache limit defaults.
const (
	defaultAnswerCap = 1 << 21
	defaultOtherCap  = 1 << 20
)

// withDefaults fills zero limits.
func (l CacheLimits) withDefaults() CacheLimits {
	if l.Answers <= 0 {
		l.Answers = defaultAnswerCap
	}
	if l.Delegations <= 0 {
		l.Delegations = defaultOtherCap
	}
	if l.Zones <= 0 {
		l.Zones = defaultOtherCap
	}
	if l.Servers <= 0 {
		l.Servers = defaultOtherCap
	}
	if l.Spans <= 0 {
		l.Spans = defaultOtherCap
	}
	return l
}

// CacheSizes reports the current entry counts of every cache (see
// Resolver.CacheSizes); the steady-state tests assert these stay within the
// configured limits.
type CacheSizes struct {
	Positive, Negative int
	Delegations        int
	ZoneOutcomes       int
	Servers            int
	NSCompleted        int
	Spans              int
}

// Cache is a resolver's whole state: the positive and negative answer
// caches, the delegation (referral) cache, per-zone validation results, the
// server and NS-completion ledgers, and the validated NSEC span stores that
// power aggressive negative caching of the DLV zone, all under one mutex.
// The mutex is held for one map get or put only, never across an exchange,
// a signature check or a nested resolution, so resolvers walking on
// different shards can share one Cache (Config.Cache): a serving pool then
// shows the registry one aggressive negative cache at any width, as one
// resolver would. A resolver given no Cache owns a private one.
//
// Each map is paired with an insertion-order queue so eviction is
// deterministic: expired entries at the queue head go first (the logical
// clock is deterministic), then the oldest survivors. Overwrites keep an
// entry's original queue position. Stored values are never written again:
// a changed delegation is a new one, replacing the old.
//
// TTL arithmetic reads the Cache's process clock, not a shard clock: each
// sharing resolver adds to it how far its own shard clock has advanced
// since it last looked. With one resolver that is exactly its shard clock;
// with several driven one at a time it is the timeline one resolver doing
// all their work would have had.
//
// Seal freezes a Cache for lock-free reads. The shared infrastructure
// cache (Config.Infra) is one: warm-up fills it (Resolver.ExportInfra or
// RestoreInfra) and seals it, and every worker resolver then reads its
// delegations, zone outcomes and span stores without touching the mutex.
// A sealed Cache takes no writes: every store is a no-op, so nothing in it
// is ever evicted or replaced.
type Cache struct {
	clock  atomic.Int64 // time.Duration
	sealed atomic.Bool

	mu     sync.Mutex
	limits CacheLimits

	positive map[dns.Key]posEntry
	posOrder fifoQueue[dns.Key]
	negative map[dns.Key]negEntry
	negOrder fifoQueue[dns.Key]

	delegations map[dns.Name]*delegation
	delOrder    fifoQueue[dns.Name]
	zoneStatus  map[dns.Name]*zoneOutcome
	zoneOrder   fifoQueue[dns.Name]
	spans       map[dns.Name]*spanStore
	seenServers map[netip.Addr]bool
	seenOrder   fifoQueue[netip.Addr]
	nsCompleted map[dns.Name]bool
	nsOrder     fifoQueue[dns.Name]
}

// NewCache returns an empty Cache for resolvers to share, bounded by limits
// (zero fields take the defaults). start is the process clock's first
// reading — the time the sharing resolvers' shard clocks start at.
func NewCache(limits CacheLimits, start time.Duration) *Cache {
	c := newCache(limits)
	c.clock.Store(int64(start))
	return c
}

func newCache(limits CacheLimits) *Cache {
	return &Cache{
		limits:      limits.withDefaults(),
		positive:    make(map[dns.Key]posEntry),
		negative:    make(map[dns.Key]negEntry),
		delegations: make(map[dns.Name]*delegation),
		zoneStatus:  make(map[dns.Name]*zoneOutcome),
		spans:       make(map[dns.Name]*spanStore),
		seenServers: make(map[netip.Addr]bool),
		nsCompleted: make(map[dns.Name]bool),
	}
}

// Seal freezes the cache: every span store is replaced by a fully merged
// copy under the mutex, then the cache is marked sealed, after which
// delegation, outcome and span reads skip the mutex and every store is a
// no-op. A span add that raced Seal
// lands in a discarded store, as if it had come after. Sealing again does
// nothing.
func (c *Cache) Seal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed.Load() {
		return
	}
	for zone, st := range c.spans {
		c.spans[zone] = st.clone()
	}
	c.sealed.Store(true)
}

// Sealed reports whether the cache has been frozen.
func (c *Cache) Sealed() bool { return c.sealed.Load() }

// lockUnsealed takes the mutex for a store and reports true, or reports
// false, holding nothing, when the cache is sealed. Checking the seal under
// the mutex orders every accepted store before Seal.
func (c *Cache) lockUnsealed() bool {
	c.mu.Lock()
	if c.sealed.Load() {
		c.mu.Unlock()
		return false
	}
	return true
}

// advance adds d to the process clock and returns the new reading in whole
// seconds; advance(0) reads it.
func (c *Cache) advance(d time.Duration) uint32 {
	return uint32(time.Duration(c.clock.Add(int64(d))) / time.Second)
}

type posEntry struct {
	rrs     []dns.RR
	zone    dns.Name
	status  ValidationStatus
	usedDLV bool
	zbit    bool
	expires uint32
}

type negEntry struct {
	rcode   dns.RCode
	zone    dns.Name
	expires uint32
}

// nsServer is one name server of a delegation; addr is the zero value when
// no glue was provided and the address must be resolved.
type nsServer struct {
	name dns.Name
	addr netip.Addr
}

// delegation caches a zone cut discovered through referrals.
type delegation struct {
	parent  dns.Name
	servers []nsServer
}

// clone deep-copies a delegation: the glueless-resolution path records a
// resolved address in a copy, because a stored delegation may be read by
// every resolver sharing the cache and by the shared infrastructure cache.
func (d *delegation) clone() *delegation {
	c := &delegation{parent: d.parent, servers: make([]nsServer, len(d.servers))}
	copy(c.servers, d.servers)
	return c
}

// zoneOutcome caches per-zone validation state.
type zoneOutcome struct {
	status ValidationStatus
	// keys are the zone's validated (or best-effort) DNSKEYs.
	keys []*dns.DNSKEYData
	// signed reports whether the zone publishes DNSKEYs at all.
	signed bool
	// viaDLV reports whether the chain was established through the
	// look-aside registry.
	viaDLV bool
}

// span is one validated NSEC interval of a zone's canonical chain. The
// store orders and tests spans on ownerKey/nextKey, the names' sort keys
// (dns.AppendSortKey): canonical order read as plain string order, so a
// coverage check is two string compares instead of re-parsing labels.
type span struct {
	owner, next       dns.Name
	ownerKey, nextKey string
	expires           uint32
	// wraps marks the span whose next is not after its owner: the last NSEC
	// of the chain, pointing back to the apex.
	wraps bool
}

// keyed returns sp with its sort keys filled from its names; both keys share
// one allocation.
func (sp span) keyed() span {
	var buf [2 * 256]byte
	b := dns.AppendSortKey(buf[:0], sp.owner)
	n := len(b)
	k := string(dns.AppendSortKey(b, sp.next))
	sp.ownerKey, sp.nextKey = k[:n], k[n:]
	sp.wraps = sp.ownerKey >= sp.nextKey
	return sp
}

// covers reports whether the name behind key falls strictly inside the span,
// which wraps at the apex the way an NSEC chain does.
func (sp *span) covers(key []byte) bool {
	if sp.wraps {
		return sp.ownerKey < string(key) || string(key) < sp.nextKey
	}
	return sp.ownerKey < string(key) && string(key) < sp.nextKey
}

// spanStore keeps validated NSEC spans queryable by coverage. Inserts go to
// an unsorted tail; when the tail grows past a threshold it is merged into
// the sorted body, keeping both insert and lookup cheap at the scale of the
// million-domain sweeps. A limit bounds the total span count: at the cap,
// expired spans are purged; if every span is still live the store resets
// wholesale — crude, but deterministic, and spans rebuild from subsequent
// denials. Coverage checks read under mu's read lock; add, purge and merge
// write under its write lock.
type spanStore struct {
	mu     sync.RWMutex
	sorted []span
	tail   []span
	limit  int
}

// tailLimit bounds the unsorted tail before a merge. covers scans the tail
// linearly on every look-aside check, so the tail must stay small; merges
// are cheap (sort the tail, then one linear pass over the body).
const tailLimit = 64

func (s *spanStore) add(sp span, now uint32) {
	sp = sp.keyed()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit > 0 && len(s.sorted)+len(s.tail) >= s.limit {
		s.purge(now)
		if len(s.sorted)+len(s.tail) >= s.limit {
			s.sorted, s.tail = s.sorted[:0], s.tail[:0]
		}
	}
	s.tail = append(s.tail, sp)
	if len(s.tail) >= tailLimit {
		s.merge()
	}
}

// purge drops expired spans from both the sorted body and the tail. The
// caller holds the write lock.
func (s *spanStore) purge(now uint32) {
	live := s.sorted[:0]
	for _, sp := range s.sorted {
		if sp.expires >= now {
			live = append(live, sp)
		}
	}
	s.sorted = live
	liveTail := s.tail[:0]
	for _, sp := range s.tail {
		if sp.expires >= now {
			liveTail = append(liveTail, sp)
		}
	}
	s.tail = liveTail
}

// merge folds the tail into the sorted body: sort the (small) tail, then
// one linear two-way merge, deduplicating identical owners with the
// freshest expiry. The body is never re-sorted — with tens of thousands of
// harvested spans per registry at sweep scale, a full sort per merge would
// dominate the audit. The caller holds the write lock (or the only
// reference).
func (s *spanStore) merge() {
	sort.Slice(s.tail, func(i, j int) bool {
		return s.tail[i].ownerKey < s.tail[j].ownerKey
	})
	out := make([]span, 0, len(s.sorted)+len(s.tail))
	i, j := 0, 0
	push := func(sp span) {
		if n := len(out); n > 0 && out[n-1].owner == sp.owner {
			if sp.expires > out[n-1].expires {
				out[n-1] = sp
			}
			return
		}
		out = append(out, sp)
	}
	for i < len(s.sorted) && j < len(s.tail) {
		if s.sorted[i].ownerKey <= s.tail[j].ownerKey {
			push(s.sorted[i])
			i++
		} else {
			push(s.tail[j])
			j++
		}
	}
	for ; i < len(s.sorted); i++ {
		push(s.sorted[i])
	}
	for ; j < len(s.tail); j++ {
		push(s.tail[j])
	}
	s.sorted, s.tail = out, s.tail[:0]
}

// clone returns an independent, fully merged copy of the store (for export
// into, and the seal of, the shared infrastructure cache).
func (s *spanStore) clone() *spanStore {
	c := &spanStore{limit: s.limit}
	s.mu.RLock()
	c.sorted = append(c.sorted, s.sorted...)
	c.tail = append(c.tail, s.tail...)
	s.mu.RUnlock()
	if len(c.tail) > 0 {
		c.merge()
	}
	return c
}

// coversKey reports, under the read lock, whether a live cached span
// proves the nonexistence, at the given time, of the name whose sort key is
// key. It takes the key rather than the name because the resolver asks its
// own cache and the infrastructure cache about the same name and builds the
// key once.
func (s *spanStore) coversKey(key []byte, now uint32) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealedCoversKey(key, now)
}

// sealedCoversKey is coversKey without the lock, for a store nothing
// writes any more (a sealed Cache's).
func (s *spanStore) sealedCoversKey(key []byte, now uint32) bool {
	for i := range s.tail {
		if sp := &s.tail[i]; sp.expires >= now && sp.covers(key) {
			return true
		}
	}
	if len(s.sorted) == 0 {
		return false
	}
	// Binary search for the last owner <= name, then check that span and
	// the wrap-around span at the end of the chain.
	i := sort.Search(len(s.sorted), func(i int) bool {
		return s.sorted[i].ownerKey > string(key)
	})
	candidates := [...]int{i - 1, len(s.sorted) - 1}
	for _, j := range candidates {
		if j < 0 || j >= len(s.sorted) {
			continue
		}
		if sp := &s.sorted[j]; sp.expires >= now && sp.covers(key) {
			return true
		}
	}
	return false
}

// size returns the number of stored spans.
func (s *spanStore) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sorted) + len(s.tail)
}

// fifoQueue is the insertion-order eviction queue behind every bounded
// resolver map. Keys enter once, on first insert (overwrites keep the
// original position); eviction pops from the head, so enforcing a limit is
// amortized O(1) per insert — every pop matches one past push — instead of
// the O(cache) sweep the previous design paid on the hot path at the
// million-domain scale. The popped prefix is compacted away once it
// outgrows the live half, keeping total copying linear in pushes.
type fifoQueue[K comparable] struct {
	keys []K
	head int
}

func (q *fifoQueue[K]) push(k K) {
	if q.head > 64 && q.head > len(q.keys)/2 {
		n := copy(q.keys, q.keys[q.head:])
		q.keys = q.keys[:n]
		q.head = 0
	}
	q.keys = append(q.keys, k)
}

func (q *fifoQueue[K]) peek() (K, bool) {
	if q.head >= len(q.keys) {
		var zero K
		return zero, false
	}
	return q.keys[q.head], true
}

func (q *fifoQueue[K]) pop() (K, bool) {
	k, ok := q.peek()
	if ok {
		q.head++
	}
	return k, ok
}

// evictForInsert makes room in m for one new entry: consecutive expired
// entries at the queue head are dropped first, then the oldest entries
// until the map is under its limit. Both steps depend only on per-resolver
// insertion order and the logical clock, so eviction is deterministic (and
// in particular independent of how many sweep shards run concurrently).
// Expired entries that are not yet at the head survive until they reach
// it; memory stays bounded by the limit either way.
func evictForInsert[K comparable, V any](m map[K]V, q *fifoQueue[K], limit int, expired func(V) bool) {
	if expired != nil {
		for {
			k, ok := q.peek()
			if !ok {
				break
			}
			v, live := m[k]
			if live && !expired(v) {
				break
			}
			q.pop()
			if live {
				delete(m, k)
			}
		}
	}
	for len(m) >= limit {
		k, ok := q.pop()
		if !ok {
			break
		}
		delete(m, k)
	}
}

// answer looks key up in the positive, then the negative cache, and
// returns the entry if it is live at now.
func (c *Cache) answer(key dns.Key, now uint32) (*coreResult, bool) {
	c.mu.Lock()
	pos, ok := c.positive[key]
	if ok && pos.expires >= now {
		c.mu.Unlock()
		return &coreResult{
			rcode: dns.RCodeNoError, answer: pos.rrs, zone: pos.zone,
			zbit: pos.zbit, fromCache: true, status: pos.status, usedDLV: pos.usedDLV,
		}, true
	}
	neg, ok := c.negative[key]
	c.mu.Unlock()
	if ok && neg.expires >= now {
		return &coreResult{rcode: neg.rcode, zone: neg.zone, fromCache: true}, true
	}
	return nil, false
}

// storePositive writes a positive answer, enforcing the answer bound.
func (c *Cache) storePositive(key dns.Key, e posEntry, now uint32) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if _, ok := c.positive[key]; !ok {
		if len(c.positive) >= c.limits.Answers {
			evictForInsert(c.positive, &c.posOrder, c.limits.Answers,
				func(e posEntry) bool { return e.expires < now })
		}
		c.posOrder.push(key)
	}
	c.positive[key] = e
}

// storeNegative writes a negative answer, enforcing the answer bound.
func (c *Cache) storeNegative(key dns.Key, e negEntry, now uint32) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if _, ok := c.negative[key]; !ok {
		if len(c.negative) >= c.limits.Answers {
			evictForInsert(c.negative, &c.negOrder, c.limits.Answers,
				func(e negEntry) bool { return e.expires < now })
		}
		c.negOrder.push(key)
	}
	c.negative[key] = e
}

// delegation looks up a cached zone cut.
func (c *Cache) delegation(name dns.Name) (*delegation, bool) {
	if !c.sealed.Load() {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	d, ok := c.delegations[name]
	return d, ok
}

// storeDelegation writes a zone cut, enforcing the delegation bound.
// Delegations carry no TTL in this model, so eviction is purely FIFO; a
// dropped cut is relearned through a referral walk.
func (c *Cache) storeDelegation(name dns.Name, d *delegation) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if _, ok := c.delegations[name]; !ok {
		if len(c.delegations) >= c.limits.Delegations {
			evictForInsert(c.delegations, &c.delOrder, c.limits.Delegations, nil)
		}
		c.delOrder.push(name)
	}
	c.delegations[name] = d
}

// replaceDelegation swaps old for d in place — same queue position, no
// eviction — only while the name still holds old: a cut that was evicted
// or relearned since old was read stays as it is.
func (c *Cache) replaceDelegation(name dns.Name, old, d *delegation) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if c.delegations[name] == old {
		c.delegations[name] = d
	}
}

// outcome looks up a cached per-zone validation outcome.
func (c *Cache) outcome(name dns.Name) (*zoneOutcome, bool) {
	if !c.sealed.Load() {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	out, ok := c.zoneStatus[name]
	return out, ok
}

// storeZoneStatus writes a per-zone validation outcome, enforcing the zone
// bound. An evicted outcome is re-established by re-validating the chain.
func (c *Cache) storeZoneStatus(name dns.Name, out *zoneOutcome) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if _, ok := c.zoneStatus[name]; !ok {
		if len(c.zoneStatus) >= c.limits.Zones {
			evictForInsert(c.zoneStatus, &c.zoneOrder, c.limits.Zones, nil)
		}
		c.zoneOrder.push(name)
	}
	c.zoneStatus[name] = out
}

// noteSeenServer records first contact with a server address, enforcing the
// server bound. Returns true when the address was already known.
func (c *Cache) noteSeenServer(addr netip.Addr) (seen bool) {
	if !c.lockUnsealed() {
		return c.seenServers[addr]
	}
	defer c.mu.Unlock()
	if c.seenServers[addr] {
		return true
	}
	if len(c.seenServers) >= c.limits.Servers {
		evictForInsert(c.seenServers, &c.seenOrder, c.limits.Servers, nil)
	}
	c.seenOrder.push(addr)
	c.seenServers[addr] = true
	return false
}

// noteNSCompleted records the NS-completion decision for a zone, enforcing
// the zone bound. Returns true when the zone was already decided.
func (c *Cache) noteNSCompleted(name dns.Name) (done bool) {
	if !c.lockUnsealed() {
		return c.nsCompleted[name]
	}
	defer c.mu.Unlock()
	if c.nsCompleted[name] {
		return true
	}
	if len(c.nsCompleted) >= c.limits.Zones {
		evictForInsert(c.nsCompleted, &c.nsOrder, c.limits.Zones, nil)
	}
	c.nsOrder.push(name)
	c.nsCompleted[name] = true
	return false
}

// addSpan stores a validated NSEC span of zone, creating the zone's span
// store on first use. The store's own lock covers the insert, so a merge
// never holds the cache mutex.
func (c *Cache) addSpan(zone dns.Name, sp span, now uint32) {
	if !c.lockUnsealed() {
		return
	}
	st, ok := c.spans[zone]
	if !ok {
		st = &spanStore{limit: c.limits.Spans}
		c.spans[zone] = st
	}
	c.mu.Unlock()
	st.add(sp, now)
}

// spanCovers reports whether a live span of zone proves the nonexistence,
// at now, of the name whose sort key (dns.AppendSortKey) is key. A sealed
// cache's stores are read without any lock. A zone with no store has no
// spans; the read does not create one.
func (c *Cache) spanCovers(zone dns.Name, key []byte, now uint32) bool {
	if c.sealed.Load() {
		st, ok := c.spans[zone]
		return ok && st.sealedCoversKey(key, now)
	}
	c.mu.Lock()
	st, ok := c.spans[zone]
	c.mu.Unlock()
	return ok && st.coversKey(key, now)
}

// Sizes snapshots the entry counts.
func (c *Cache) Sizes() CacheSizes {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := 0
	for _, st := range c.spans {
		spans += st.size()
	}
	return CacheSizes{
		Positive:     len(c.positive),
		Negative:     len(c.negative),
		Delegations:  len(c.delegations),
		ZoneOutcomes: len(c.zoneStatus),
		Servers:      len(c.seenServers),
		NSCompleted:  len(c.nsCompleted),
		Spans:        spans,
	}
}
