package resolver

import (
	"fmt"
	"maps"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// InfraCache is the older name of a sealed infrastructure Cache. The
// benchmark module (bench/) still spells it, and bench/ stays unchanged so
// its runs compare across commits; everything else says *Cache.
type InfraCache = Cache

// ExportInfra copies the resolver's cache entries whose names pass keep
// into ic, the infrastructure cache warm-up fills before sealing it.
// Delegations and zone outcomes are shared as they are (nothing writes a
// stored one again); span stores are cloned fully merged, and empty ones
// are left out. The copy writes ic's maps directly, past its bounds: ic
// holds exactly what was exported. A sealed ic takes nothing.
func (r *Resolver) ExportInfra(ic *Cache, keep func(dns.Name) bool) {
	c := r.cache
	c.mu.Lock()
	dels, outs, spans := maps.Clone(c.delegations), maps.Clone(c.zoneStatus), maps.Clone(c.spans)
	c.mu.Unlock()
	if !ic.lockUnsealed() {
		return
	}
	defer ic.mu.Unlock()
	for n, d := range dels {
		if keep(n) {
			ic.delegations[n] = d
		}
	}
	for n, out := range outs {
		if keep(n) {
			ic.zoneStatus[n] = out
		}
	}
	for n, st := range spans {
		if keep(n) && st.size() > 0 {
			ic.spans[n] = st.clone()
		}
	}
}

// cachedDelegation looks a zone cut up in the resolver's cache, then in the
// shared infrastructure cache. Nothing is copied from the second into the
// first: every lookup the infrastructure cache answers counts as an infra
// hit, every one it cannot as a miss.
func (r *Resolver) cachedDelegation(n dns.Name) (*delegation, bool) {
	if d, ok := r.cache.delegation(n); ok || r.infra == nil {
		return d, ok
	}
	d, ok := r.infra.delegation(n)
	r.countInfra(ok)
	return d, ok
}

// cachedOutcome returns the validation outcome of a zone from the
// resolver's cache, falling back to the shared infrastructure cache and
// counting that lookup as cachedDelegation does. Outcomes are immutable
// after storage, so the pointer is shared.
func (r *Resolver) cachedOutcome(n dns.Name) (*zoneOutcome, bool) {
	if out, ok := r.cache.outcome(n); ok || r.infra == nil {
		return out, ok
	}
	out, ok := r.infra.outcome(n)
	r.countInfra(ok)
	return out, ok
}

// countInfra counts one infrastructure-cache lookup.
func (r *Resolver) countInfra(hit bool) {
	if hit {
		r.stats.InfraHits++
	} else {
		r.stats.InfraMisses++
	}
}

// spanCovers reports whether a validated NSEC span — harvested into the
// resolver's cache or warmed into the infrastructure cache — proves the
// nonexistence of name in zone. Span lookups are not counted as infra
// hits or misses.
func (r *Resolver) spanCovers(zone, name dns.Name, now uint32) bool {
	var buf [256]byte
	key := dns.AppendSortKey(buf[:0], name)
	return r.cache.spanCovers(zone, key, now) ||
		r.infra != nil && r.infra.spanCovers(zone, key, now)
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
func (r *Resolver) CacheSizes() CacheSizes { return r.cache.Sizes() }
