package resolver

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// InfraCache is a shared, read-mostly cache of infrastructure resolver
// state: delegations for the root-to-TLD and registry paths, validated
// per-zone outcomes (root, TLDs, the look-aside registry), and validated
// NSEC span stores. A sweep warms one cache on a private shard
// (core.WarmInfra), seals it, and hands it to every worker resolver via
// Config.Infra — workers then skip the identical root/TLD/registry
// validation walks instead of each repeating them.
//
// Writes are sharded behind mutexes and only happen during warm-up; Seal
// flips the cache into a read-only state where lookups skip the shard
// locks, so a worker pool scales without contention. Per-domain answer
// state never enters this cache (the export filter keeps it out), so the
// resolvers' own caches remain the only place population answers live and
// the workers-invariance guarantees of the sharded auditor hold.
type InfraCache struct {
	sealed atomic.Bool
	shards [infraShardCount]infraShard
}

// infraShardCount spreads warm-up writes; reads after Seal are lock-free,
// so the count only matters for the (single-threaded) warm phase.
const infraShardCount = 8

type infraShard struct {
	mu          sync.RWMutex
	delegations map[dns.Name]*delegation
	zoneStatus  map[dns.Name]*zoneOutcome
	spans       map[dns.Name]*spanStore
}

// NewInfraCache returns an empty, unsealed cache.
func NewInfraCache() *InfraCache {
	ic := &InfraCache{}
	for i := range ic.shards {
		ic.shards[i].delegations = make(map[dns.Name]*delegation)
		ic.shards[i].zoneStatus = make(map[dns.Name]*zoneOutcome)
		ic.shards[i].spans = make(map[dns.Name]*spanStore)
	}
	return ic
}

func (ic *InfraCache) shard(n dns.Name) *infraShard {
	return &ic.shards[hashString(string(n))%infraShardCount]
}

// Seal freezes the cache: pending span tails are merged and every
// subsequent lookup reads without locking. Writes after Seal are ignored.
func (ic *InfraCache) Seal() {
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.Lock()
		for _, st := range sh.spans {
			st.mu.Lock()
			if len(st.tail) > 0 {
				st.merge()
			}
			st.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	ic.sealed.Store(true)
}

// Sealed reports whether the cache has been frozen.
func (ic *InfraCache) Sealed() bool { return ic.sealed.Load() }

// Sizes reports how many entries the cache holds per kind (delegations,
// zone outcomes, spans) — introspection for tests and the sweep report.
func (ic *InfraCache) Sizes() (delegations, zones, spans int) {
	for i := range ic.shards {
		sh := &ic.shards[i]
		sh.mu.RLock()
		delegations += len(sh.delegations)
		zones += len(sh.zoneStatus)
		for _, st := range sh.spans {
			spans += st.size()
		}
		sh.mu.RUnlock()
	}
	return
}

func (ic *InfraCache) putDelegation(n dns.Name, d *delegation) {
	if ic.sealed.Load() {
		return
	}
	sh := ic.shard(n)
	sh.mu.Lock()
	sh.delegations[n] = d
	sh.mu.Unlock()
}

func (ic *InfraCache) putOutcome(n dns.Name, out *zoneOutcome) {
	if ic.sealed.Load() {
		return
	}
	sh := ic.shard(n)
	sh.mu.Lock()
	sh.zoneStatus[n] = out
	sh.mu.Unlock()
}

func (ic *InfraCache) putSpans(n dns.Name, st *spanStore) {
	if ic.sealed.Load() {
		return
	}
	sh := ic.shard(n)
	sh.mu.Lock()
	sh.spans[n] = st
	sh.mu.Unlock()
}

// delegation looks up a shared zone cut.
func (ic *InfraCache) delegation(n dns.Name) (*delegation, bool) {
	sh := ic.shard(n)
	if ic.sealed.Load() {
		d, ok := sh.delegations[n]
		return d, ok
	}
	sh.mu.RLock()
	d, ok := sh.delegations[n]
	sh.mu.RUnlock()
	return d, ok
}

// delegationParent returns the referral parent of a shared zone cut.
func (ic *InfraCache) delegationParent(n dns.Name) (dns.Name, bool) {
	if d, ok := ic.delegation(n); ok {
		return d.parent, true
	}
	return "", false
}

// outcome looks up a shared validation outcome.
func (ic *InfraCache) outcome(n dns.Name) (*zoneOutcome, bool) {
	sh := ic.shard(n)
	if ic.sealed.Load() {
		out, ok := sh.zoneStatus[n]
		return out, ok
	}
	sh.mu.RLock()
	out, ok := sh.zoneStatus[n]
	sh.mu.RUnlock()
	return out, ok
}

// spanCovers reports whether a shared validated NSEC span proves the
// nonexistence, in zone at the given time, of the name whose sort key
// (dns.AppendSortKey) is key.
func (ic *InfraCache) spanCovers(zone dns.Name, key []byte, now uint32) bool {
	sh := ic.shard(zone)
	if ic.sealed.Load() {
		st, ok := sh.spans[zone]
		return ok && st.sealedCoversKey(key, now)
	}
	sh.mu.RLock()
	st, ok := sh.spans[zone]
	sh.mu.RUnlock()
	return ok && st.coversKey(key, now)
}

// ExportInfra copies the resolver's cache entries whose names pass keep
// into the shared cache. Delegations and zone outcomes are shared as they
// are (nothing writes a stored one again); span stores are cloned fully
// merged. Call before Seal.
func (r *Resolver) ExportInfra(ic *InfraCache, keep func(dns.Name) bool) {
	c := r.cache
	c.mu.Lock()
	dels, outs, spans := maps.Clone(c.delegations), maps.Clone(c.zoneStatus), maps.Clone(c.spans)
	c.mu.Unlock()
	for n, d := range dels {
		if keep(n) {
			ic.putDelegation(n, d)
		}
	}
	for n, out := range outs {
		if keep(n) {
			ic.putOutcome(n, out)
		}
	}
	for n, st := range spans {
		if keep(n) && st.size() > 0 {
			ic.putSpans(n, st.clone())
		}
	}
}

// infraDelegation looks a zone cut up in the shared infrastructure cache.
// Nothing is copied into the resolver's cache: the sealed one is read
// without a lock, and every lookup it serves counts as a hit.
func (r *Resolver) infraDelegation(n dns.Name) (*delegation, bool) {
	if r.infra == nil {
		return nil, false
	}
	d, ok := r.infra.delegation(n)
	if !ok {
		r.stats.InfraMisses++
		return nil, false
	}
	r.stats.InfraHits++
	return d, true
}

// cachedOutcome returns the validation outcome of a zone from the
// resolver's cache, falling back to the shared infrastructure cache.
// Outcomes are immutable after storage, so the pointer is shared.
func (r *Resolver) cachedOutcome(n dns.Name) (*zoneOutcome, bool) {
	if out, ok := r.cache.outcome(n); ok {
		return out, true
	}
	if r.infra != nil {
		if out, ok := r.infra.outcome(n); ok {
			r.stats.InfraHits++
			return out, true
		}
		r.stats.InfraMisses++
	}
	return nil, false
}

// spanCovers reports whether a validated NSEC span — harvested into the
// resolver's cache or warmed into the infrastructure cache — proves the
// nonexistence of name in zone. Harvests go to the resolver's cache; the
// infrastructure store only grows during warm-up.
func (r *Resolver) spanCovers(zone, name dns.Name, now uint32) bool {
	var buf [256]byte
	key := dns.AppendSortKey(buf[:0], name)
	if r.cache.spansFor(zone).coversKey(key, now) {
		return true
	}
	return r.infra != nil && r.infra.spanCovers(zone, key, now)
}

// WarmRegistry validates the look-aside registry's keys against the DLV
// trust anchor, exactly as the first look-aside walk would. Warm-up calls
// it so the registry outcome (and the delegations learned reaching it) can
// be exported into the shared infrastructure cache before workers start.
// An unreachable registry is an error here, even though a serving
// resolver tolerates it: validateRegistry caches a keyless indeterminate
// outcome to keep that resolver functioning, but warm-up must not export
// the failure mode as shared truth — workers handed it would skip the
// registry walk (and its SERVFAIL/breaker behavior) a cold fleet would
// have performed.
func (r *Resolver) WarmRegistry() error {
	if r.cfg.Lookaside == nil || !r.cfg.ValidationEnabled {
		return nil
	}
	if err := r.validateRegistry(0); err != nil {
		return err
	}
	if out, ok := r.cache.outcome(r.cfg.Lookaside.Zone); ok &&
		out.status == StatusIndeterminate && len(out.keys) == 0 {
		return fmt.Errorf("resolver: registry %s unreachable during warm-up", r.cfg.Lookaside.Zone)
	}
	return nil
}

// CacheSizes snapshots the entry counts of every cache in the resolver's
// Cache (shared ones included).
func (r *Resolver) CacheSizes() CacheSizes { return r.cache.sizes() }
