package resolver

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// InfraState is the serializable form of a sealed infrastructure Cache:
// plain exported structs in deterministic (canonical-name) order, so the
// snapshot bytes are a function of the cache contents alone. The snapshot
// package encodes it; RestoreInfra rebuilds a sealed cache from it.
type InfraState struct {
	Delegations []InfraDelegation
	Outcomes    []InfraOutcome
	Spans       []InfraSpanSet
}

// InfraDelegation is one shared zone cut.
type InfraDelegation struct {
	Name    dns.Name
	Parent  dns.Name
	Servers []InfraServer
}

// InfraServer is one name server of a delegation; a zero Addr means no
// glue (the address resolves on demand).
type InfraServer struct {
	Name dns.Name
	Addr netip.Addr
}

// InfraOutcome is one shared per-zone validation outcome.
type InfraOutcome struct {
	Name   dns.Name
	Status ValidationStatus
	Keys   []*dns.DNSKEYData
	Signed bool
	ViaDLV bool
}

// InfraSpanSet is one zone's validated NSEC span store, fully merged: the
// spans are in strictly increasing canonical owner order.
type InfraSpanSet struct {
	Zone  dns.Name
	Limit int
	Spans []InfraSpan
}

// InfraSpan is one validated NSEC interval.
type InfraSpan struct {
	Owner, Next dns.Name
	Expires     uint32
}

// WarmFingerprint summarizes the configuration fields that shape what a
// warm-up walk learns — validation state, anchors, look-aside mode, probe
// percentages, minimization. A snapshot saved under one fingerprint must
// not load under another: an infrastructure cache warmed with NS
// completion off (a sweep) holds different delegations than one warmed
// with it on (the serving default), and serving the wrong one would
// silently change behavior rather than fail.
func (c Config) WarmFingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "validation=%t root-anchor=%t nscomp=%d ptr=%d qmin=%t",
		c.ValidationEnabled, c.RootAnchor != nil,
		c.NSCompletionPercent, c.PTRSamplePercent, c.QNameMinimization)
	if la := c.Lookaside; la != nil {
		// Canonicalize zero-valued knobs to the defaults New applies (it
		// writes them back through the shared Lookaside pointer), so a
		// config fingerprints identically before and after a resolver has
		// been constructed from it.
		policy, remedy := la.Policy, la.Remedy
		if policy == 0 {
			policy = PolicyOnFailure
		}
		if remedy == 0 {
			remedy = RemedyNone
		}
		fmt.Fprintf(&b, " dlv=%s dlv-anchor=%t policy=%d hashed=%t remedy=%d noaggro=%t",
			la.Zone, la.Anchor != nil, policy, la.Hashed, remedy,
			la.DisableAggressiveNegCache)
	} else {
		b.WriteString(" dlv=off")
	}
	return b.String()
}

// Export snapshots the infrastructure part of a sealed cache — its
// delegations, zone outcomes and span stores — as an InfraState. Exporting
// an unsealed cache is an error: its maps may still change, and its span
// tails are not merged.
func (c *Cache) Export() (*InfraState, error) {
	if !c.Sealed() {
		return nil, fmt.Errorf("resolver: exporting unsealed infra cache")
	}
	st := &InfraState{}
	for n, d := range c.delegations {
		servers := make([]InfraServer, len(d.servers))
		for j, s := range d.servers {
			servers[j] = InfraServer{Name: s.name, Addr: s.addr}
		}
		st.Delegations = append(st.Delegations, InfraDelegation{
			Name: n, Parent: d.parent, Servers: servers,
		})
	}
	for n, out := range c.zoneStatus {
		st.Outcomes = append(st.Outcomes, InfraOutcome{
			Name: n, Status: out.status, Keys: out.keys,
			Signed: out.signed, ViaDLV: out.viaDLV,
		})
	}
	for n, store := range c.spans {
		set := InfraSpanSet{Zone: n, Limit: store.limit,
			Spans: make([]InfraSpan, len(store.sorted))}
		for j, sp := range store.sorted {
			set.Spans[j] = InfraSpan{Owner: sp.owner, Next: sp.next, Expires: sp.expires}
		}
		st.Spans = append(st.Spans, set)
	}
	sort.Slice(st.Delegations, func(i, j int) bool {
		return dns.CanonicalLess(st.Delegations[i].Name, st.Delegations[j].Name)
	})
	sort.Slice(st.Outcomes, func(i, j int) bool {
		return dns.CanonicalLess(st.Outcomes[i].Name, st.Outcomes[j].Name)
	})
	sort.Slice(st.Spans, func(i, j int) bool {
		return dns.CanonicalLess(st.Spans[i].Zone, st.Spans[j].Zone)
	})
	return st, nil
}

// RestoreInfra rebuilds a sealed infrastructure cache from an exported
// state, holding exactly its entries. It accepts only what Export writes:
// delegation names, outcome names, span-set zones and the span owners of
// each set must each be in strictly increasing canonical order. A repeated
// name would otherwise silently replace the one before it, and the lookup
// path binary-searches a set's spans, so an unsorted set would give wrong
// coverage answers rather than an error.
func RestoreInfra(st *InfraState) (*Cache, error) {
	if err := ascending("delegations", st.Delegations, func(d InfraDelegation) dns.Name { return d.Name }); err != nil {
		return nil, err
	}
	if err := ascending("outcomes", st.Outcomes, func(o InfraOutcome) dns.Name { return o.Name }); err != nil {
		return nil, err
	}
	if err := ascending("span sets", st.Spans, func(s InfraSpanSet) dns.Name { return s.Zone }); err != nil {
		return nil, err
	}
	c := newCache(CacheLimits{})
	for _, d := range st.Delegations {
		servers := make([]nsServer, len(d.Servers))
		for j, s := range d.Servers {
			servers[j] = nsServer{name: s.Name, addr: s.Addr}
		}
		c.delegations[d.Name] = &delegation{parent: d.Parent, servers: servers}
	}
	for _, out := range st.Outcomes {
		if out.Status < StatusSecure || out.Status > StatusIndeterminate {
			return nil, fmt.Errorf("resolver: restoring %s: invalid validation status %d", out.Name, out.Status)
		}
		c.zoneStatus[out.Name] = &zoneOutcome{
			status: out.Status, keys: out.Keys,
			signed: out.Signed, viaDLV: out.ViaDLV,
		}
	}
	for _, set := range st.Spans {
		store := &spanStore{limit: set.Limit, sorted: make([]span, len(set.Spans))}
		for j, sp := range set.Spans {
			store.sorted[j] = span{owner: sp.Owner, next: sp.Next, expires: sp.Expires}.keyed()
			if j > 0 && store.sorted[j-1].ownerKey >= store.sorted[j].ownerKey {
				return nil, fmt.Errorf("resolver: restoring spans of %s: owners out of order at %d", set.Zone, j)
			}
		}
		c.spans[set.Zone] = store
	}
	c.Seal()
	return c, nil
}

// ascending checks that the names of list are in strictly increasing
// canonical order.
func ascending[T any](what string, list []T, name func(T) dns.Name) error {
	for i := 1; i < len(list); i++ {
		if !dns.CanonicalLess(name(list[i-1]), name(list[i])) {
			return fmt.Errorf("resolver: restoring %s: %s out of order at %d", what, name(list[i]), i)
		}
	}
	return nil
}
