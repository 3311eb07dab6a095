package resolver

import (
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/gencache"
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
	// Zones bounds the per-zone records (zone cut, validation outcome and
	// NS-completion decision) and the ledger of servers contacted (PTR
	// sampling). Default 1<<20.
	Zones int
	// Spans bounds the distinct spans each zone's validated NSEC span store
	// holds. Default 1<<20.
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
	if l.Zones <= 0 {
		l.Zones = defaultOtherCap
	}
	if l.Spans <= 0 {
		l.Spans = defaultOtherCap
	}
	return l
}

// CacheSizes reports the current entry counts of every cache (see
// Resolver.CacheSizes); the steady-state tests assert these stay within the
// configured limits. Zones counts the zone records, and Delegations,
// ZoneOutcomes and NSCompleted count those holding each part.
type CacheSizes struct {
	Positive, Negative int
	Zones              int
	Delegations        int
	ZoneOutcomes       int
	Servers            int
	NSCompleted        int
	Spans              int
}

// Cache is a resolver's whole state: the positive and negative answer
// caches, one record per zone (its cut, validation outcome and NS-completion
// decision), the ledger of servers contacted, and the validated NSEC span
// stores that power aggressive negative caching of the DLV zone, all under
// one mutex.
// The mutex is held for one map get or put only, never across an exchange,
// a signature check or a nested resolution, so resolvers walking on
// different shards can share one Cache (Config.Cache): a serving pool then
// shows the registry one aggressive negative cache at any width, as one
// resolver would. A resolver given no Cache owns a private one.
//
// Each bounded map is a gencache.Cache whose generations span half its
// limit, so it holds at most the limit: what is stored or read within the
// last half-limit inserts stays, what nothing touched for two generations
// is dropped. Eviction depends only on the order of stores and reads, so it
// is deterministic for a deterministic walk. Expiry is checked on every
// read, never by eviction. A zone's parts share its record, so they are
// kept and dropped together. Stored delegations are never written again: a
// changed delegation is a new one, replacing the old.
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

	mu sync.Mutex

	positive    gencache.Cache[dns.Key, posEntry]
	negative    gencache.Cache[dns.Key, negEntry]
	zones       gencache.Cache[dns.Name, zoneRec]
	seenServers gencache.Cache[netip.Addr, struct{}]

	spans     map[dns.Name]*spanStore
	spanLimit int
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
	l := limits.withDefaults()
	return &Cache{
		positive:    gencache.New[dns.Key, posEntry](l.Answers / 2),
		negative:    gencache.New[dns.Key, negEntry](l.Answers / 2),
		zones:       gencache.New[dns.Name, zoneRec](l.Zones / 2),
		seenServers: gencache.New[netip.Addr, struct{}](l.Zones / 2),
		spans:       make(map[dns.Name]*spanStore),
		spanLimit:   l.Spans,
	}
}

// Seal freezes the cache: every span store is replaced by a fully merged
// copy under the mutex, then the cache is marked sealed, after which
// delegation, outcome, ledger and span reads skip the mutex and every
// store is a no-op. A span add that raced Seal lands in a discarded store,
// as if it had come after. Sealing again does nothing.
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

// posEntry is a cached positive answer. The answer tables are the largest
// part of a serving cache, so the fields of both entry types are ordered
// for size.
type posEntry struct {
	rrs     []dns.RR
	zone    dns.Name
	expires uint32
	status  ValidationStatus
	usedDLV bool
	zbit    bool
}

// negEntry is a cached denial. It keeps the validation state of the answer
// it stands for, as posEntry does, so a repeated NXDOMAIN or NODATA comes
// back with the status, look-aside use and Z bit of the first.
type negEntry struct {
	zone    dns.Name
	expires uint32
	rcode   dns.RCode
	status  ValidationStatus
	usedDLV bool
	zbit    bool
}

// nsServer is one name server of a delegation; addr is the zero value when
// no glue was provided and the address must be resolved.
type nsServer struct {
	name dns.Name
	addr netip.Addr
}

// delegation caches a zone cut discovered through referrals. servers starts
// on one, its own backing array, so the common cut of one server is a single
// allocation.
type delegation struct {
	parent  dns.Name
	servers []nsServer
	one     [1]nsServer
}

// newDelegation returns a cut below parent with no servers yet.
func newDelegation(parent dns.Name) *delegation {
	d := &delegation{parent: parent}
	d.servers = d.one[:0]
	return d
}

// clone deep-copies a delegation: the glueless-resolution path records a
// resolved address in a copy, because a stored delegation may be read by
// every resolver sharing the cache and by the shared infrastructure cache.
func (d *delegation) clone() *delegation {
	c := newDelegation(d.parent)
	c.servers = append(c.servers, d.servers...)
	return c
}

// zoneOutcome is a zone's validation state.
type zoneOutcome struct {
	// keys are the zone's validated (or best-effort) DNSKEYs.
	keys   []*dns.DNSKEYData
	status ValidationStatus
	// signed reports whether the zone publishes DNSKEYs at all.
	signed bool
	// viaDLV reports whether the chain was established through the
	// look-aside registry.
	viaDLV bool
}

// zoneRec is what the cache keeps about one zone, each part present on its
// own: its cut (nil: none), its validation outcome (status 0: none) and
// whether its NS completion was decided. The outcome is held by value, so
// a keyless one costs no allocation.
type zoneRec struct {
	zoneOutcome
	deleg  *delegation
	nsDone bool
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

// spanStore keeps validated NSEC spans queryable by coverage. A span the
// store already holds — same owner, same next — is refreshed in place; any
// other insert goes to an unsorted tail, and when the tail grows past a
// threshold it is merged into the sorted body, keeping both insert and
// lookup cheap at the scale of the million-domain sweeps. A limit bounds the
// number of distinct spans: at the cap, expired spans are purged; if every
// span is still live the store resets wholesale — crude, but deterministic,
// and spans rebuild from subsequent denials. Coverage checks read under mu's
// read lock; add, purge and merge write under its write lock.
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

// add stores sp. If the store holds it already, only the held copy's expiry
// is raised to the later of the two: one copy covers exactly what the pair
// would, so the refresh allocates nothing, queues nothing and never meets the
// cap. A span with a held owner but another next is queued like a new one,
// and the merge keeps the fresher of the two.
func (s *spanStore) add(sp span, now uint32) {
	var buf [256]byte
	ownerKey := dns.AppendSortKey(buf[:0], sp.owner)
	s.mu.Lock()
	defer s.mu.Unlock()
	if held := s.held(ownerKey, sp); held != nil {
		held.expires = max(held.expires, sp.expires)
		return
	}
	sp = sp.keyed()
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

// held returns the store's copy of sp — the same owner and the same next —
// or nil; ownerKey is the owner's sort key. The body holds one span per
// owner, found by binary search; the short tail is scanned whole. The caller
// holds the write lock.
func (s *spanStore) held(ownerKey []byte, sp span) *span {
	i := sort.Search(len(s.sorted), func(i int) bool {
		return s.sorted[i].ownerKey >= string(ownerKey)
	})
	if i < len(s.sorted) && s.sorted[i].owner == sp.owner && s.sorted[i].next == sp.next {
		return &s.sorted[i]
	}
	for i := range s.tail {
		if t := &s.tail[i]; t.owner == sp.owner && t.next == sp.next {
			return t
		}
	}
	return nil
}

// purge drops expired spans from both the sorted body and the tail. The
// caller holds the write lock.
func (s *spanStore) purge(now uint32) {
	expired := func(sp span) bool { return sp.expires < now }
	s.sorted = slices.DeleteFunc(s.sorted, expired)
	s.tail = slices.DeleteFunc(s.tail, expired)
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
	for i < len(s.sorted) || j < len(s.tail) {
		if j == len(s.tail) || i < len(s.sorted) && s.sorted[i].ownerKey <= s.tail[j].ownerKey {
			push(s.sorted[i])
			i++
		} else {
			push(s.tail[j])
			j++
		}
	}
	s.sorted, s.tail = out, s.tail[:0]
}

// clone returns an independent, fully merged copy of the store (for export
// into, and the seal of, the shared infrastructure cache).
func (s *spanStore) clone() *spanStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &spanStore{limit: s.limit, sorted: s.sorted, tail: slices.Clone(s.tail)}
	c.merge() // builds c's own body
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
	// Binary search for the last owner <= name, then check that span and
	// the wrap-around span at the end of the chain.
	i := sort.Search(len(s.sorted), func(i int) bool {
		return s.sorted[i].ownerKey > string(key)
	})
	for _, j := range [...]int{i - 1, len(s.sorted) - 1} {
		if j >= 0 && s.sorted[j].expires >= now && s.sorted[j].covers(key) {
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

// answer looks key up in the positive, then the negative cache, and
// returns the entry if it is live at now.
func (c *Cache) answer(key dns.Key, now uint32) (*coreResult, bool) {
	c.mu.Lock()
	pos, ok := c.positive.Get(key)
	if ok && pos.expires >= now {
		c.mu.Unlock()
		return &coreResult{
			rcode: dns.RCodeNoError, answer: pos.rrs, zone: pos.zone,
			zbit: pos.zbit, fromCache: true, status: pos.status, usedDLV: pos.usedDLV,
		}, true
	}
	neg, ok := c.negative.Get(key)
	c.mu.Unlock()
	if ok && neg.expires >= now {
		return &coreResult{
			rcode: neg.rcode, zone: neg.zone,
			zbit: neg.zbit, fromCache: true, status: neg.status, usedDLV: neg.usedDLV,
		}, true
	}
	return nil, false
}

// storeAnswer caches core under key, as a positive answer or a denial, live
// until now plus its TTL, enforcing the answer bound.
func (c *Cache) storeAnswer(key dns.Key, core *coreResult, now uint32) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	if core.rcode == dns.RCodeNoError && len(core.answer) > 0 {
		c.positive.Put(key, posEntry{
			rrs: core.answer, zone: core.zone, status: core.status,
			usedDLV: core.usedDLV, zbit: core.zbit, expires: now + minTTL(core.answer),
		})
		return
	}
	c.negative.Put(key, negEntry{
		rcode: core.rcode, zone: core.zone, status: core.status,
		usedDLV: core.usedDLV, zbit: core.zbit, expires: now + negativeTTLFrom(core.authority),
	})
}

// zone reads the record of a zone; a sealed cache's without the mutex and
// without promoting it.
func (c *Cache) zone(name dns.Name) (rec zoneRec) {
	if c.sealed.Load() {
		rec, _ = c.zones.Peek(name)
		return rec
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, _ = c.zones.Get(name)
	return rec
}

// updateZone stores the record of a zone as fn edits it (a zero one if none
// is held), unless fn returns false or the cache is sealed. An update
// touches the record as a read does.
func (c *Cache) updateZone(name dns.Name, fn func(*zoneRec) bool) {
	if !c.lockUnsealed() {
		return
	}
	defer c.mu.Unlock()
	rec, _ := c.zones.Get(name)
	if fn(&rec) {
		c.zones.Put(name, rec)
	}
}

// delegation looks up a cached zone cut.
func (c *Cache) delegation(name dns.Name) (*delegation, bool) {
	d := c.zone(name).deleg
	return d, d != nil
}

// storeDelegation writes a zone cut. A dropped cut is relearned through a
// referral walk.
func (c *Cache) storeDelegation(name dns.Name, d *delegation) {
	c.updateZone(name, func(rec *zoneRec) bool { rec.deleg = d; return true })
}

// replaceDelegation stores d in place of old only while the name still
// holds old: a cut that was evicted or relearned since old was read stays
// as it is.
func (c *Cache) replaceDelegation(name dns.Name, old, d *delegation) {
	c.updateZone(name, func(rec *zoneRec) bool {
		ok := rec.deleg == old
		if ok {
			rec.deleg = d
		}
		return ok
	})
}

// outcome looks up a cached per-zone validation outcome.
func (c *Cache) outcome(name dns.Name) (zoneOutcome, bool) {
	out := c.zone(name).zoneOutcome
	return out, out.status != 0
}

// storeZoneStatus writes a per-zone validation outcome. An evicted outcome
// is re-established by re-validating the chain.
func (c *Cache) storeZoneStatus(name dns.Name, out zoneOutcome) {
	c.updateZone(name, func(rec *zoneRec) bool { rec.zoneOutcome = out; return true })
}

// noteNSCompleted records the NS-completion decision for a zone. Returns
// true when the zone was already decided.
func (c *Cache) noteNSCompleted(name dns.Name) (done bool) {
	if c.sealed.Load() {
		return c.zone(name).nsDone
	}
	c.updateZone(name, func(rec *zoneRec) bool {
		done, rec.nsDone = rec.nsDone, true
		return !done
	})
	return done
}

// noteSeenServer records first contact with a server address, enforcing the
// zone bound. Returns true when the address was already known. A sealed
// cache's ledger is only read.
func (c *Cache) noteSeenServer(addr netip.Addr) (seen bool) {
	if !c.lockUnsealed() {
		_, ok := c.seenServers.Peek(addr)
		return ok
	}
	defer c.mu.Unlock()
	if _, ok := c.seenServers.Get(addr); ok {
		return true
	}
	c.seenServers.Put(addr, struct{}{})
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
		st = &spanStore{limit: c.spanLimit}
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
	sz := CacheSizes{Positive: c.positive.Len(), Negative: c.negative.Len(),
		Zones: c.zones.Len(), Servers: c.seenServers.Len()}
	c.zones.Each(func(_ dns.Name, rec zoneRec) {
		if rec.deleg != nil {
			sz.Delegations++
		}
		if rec.status != 0 {
			sz.ZoneOutcomes++
		}
		if rec.nsDone {
			sz.NSCompleted++
		}
	})
	for _, st := range c.spans {
		sz.Spans += st.size()
	}
	return sz
}
