package core

import (
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
)

// TestWarmInfraSharedAudit pins the shared-infrastructure contract: warming
// seals a non-empty cache, an audit running on it reaches every domain
// (no servfails), its leak accounting is identical to the legacy
// self-contained audit (sharing infrastructure must not change what the
// registry observes), and repeated runs are byte-identical.
func TestWarmInfraSharedAudit(t *testing.T) {
	u, pop := buildUniverse(t, 3)
	workload := pop.Top(60)
	cfg := auditorConfig(u)

	ic, err := WarmInfra(u, cfg.Resolver)
	if err != nil {
		t.Fatal(err)
	}
	if !ic.Sealed() {
		t.Fatal("WarmInfra returned an unsealed cache")
	}
	sz := ic.Sizes()
	delegations, zones := sz.Delegations, sz.ZoneOutcomes
	if delegations == 0 || zones == 0 {
		t.Fatalf("warm cache is empty: %d delegations, %d zone outcomes", delegations, zones)
	}

	run := func(infra *resolver.Cache) Report {
		opts := auditorConfig(u)
		opts.Resolver.Infra = infra
		s, err := NewShardedAuditor(u, ShardedOptions{Options: opts, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.QueryDomains(workload); err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}

	shared, legacy := run(ic), run(nil)
	if shared.Servfails != 0 {
		t.Errorf("shared-infra audit servfailed %d of %d stub queries",
			shared.Servfails, shared.StubQueries)
	}
	if shared.QueriedDomains != len(workload) {
		t.Errorf("QueriedDomains = %d, want %d", shared.QueriedDomains, len(workload))
	}
	// The registry must observe exactly the same leakage either way: the
	// infrastructure cache only short-circuits root/TLD/registry
	// validation, never per-domain look-aside behavior.
	if shared.Capture.Case1Domains != legacy.Capture.Case1Domains ||
		shared.Capture.Case2Domains != legacy.Capture.Case2Domains ||
		shared.ResolverStats.DLVQueries != legacy.ResolverStats.DLVQueries {
		t.Errorf("leak accounting changed under shared infra:\nshared: case1=%d case2=%d dlv=%d\nlegacy: case1=%d case2=%d dlv=%d",
			shared.Capture.Case1Domains, shared.Capture.Case2Domains, shared.ResolverStats.DLVQueries,
			legacy.Capture.Case1Domains, legacy.Capture.Case2Domains, legacy.ResolverStats.DLVQueries)
	}
	if again := run(ic); !reflect.DeepEqual(shared, again) {
		t.Errorf("shared-infra audit not reproducible:\nfirst:  %+v\nsecond: %+v", shared, again)
	}
}

// TestBoundedCachesSteadyState drives a workload through a resolver with
// deliberately tiny cache limits: every cache must stay within its bound
// and every query must still resolve — eviction costs wire queries, never
// correctness.
func TestBoundedCachesSteadyState(t *testing.T) {
	u, pop := buildUniverse(t, 4)
	limits := resolver.CacheLimits{
		Answers: 64, Delegations: 24, Zones: 24, Servers: 16, Spans: 48,
	}
	opts := auditorConfig(u)
	opts.Resolver.Limits = limits
	a, err := NewShardAuditor(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.QueryDomains(pop.Top(200)); err != nil {
		t.Fatal(err)
	}
	rep := a.Report()
	if rep.Servfails != 0 {
		t.Errorf("bounded caches caused %d servfails", rep.Servfails)
	}
	sizes := a.Resolver().CacheSizes()
	check := func(name string, got, limit int) {
		if got > limit {
			t.Errorf("%s cache holds %d entries, limit %d", name, got, limit)
		}
	}
	check("positive", sizes.Positive, limits.Answers)
	check("negative", sizes.Negative, limits.Answers)
	check("delegations", sizes.Delegations, limits.Delegations)
	check("zone-outcomes", sizes.ZoneOutcomes, limits.Zones)
	check("ns-completed", sizes.NSCompleted, limits.Zones)
	check("servers", sizes.Servers, limits.Servers)
	check("spans", sizes.Spans, limits.Spans)
	if sizes.Positive == 0 {
		t.Error("positive cache empty after 200 domains — limits disabled caching entirely?")
	}
}

// TestWarmInfraUnderOutage pins that warming under a full registry outage
// does not smuggle registry knowledge into the shared cache. The TLD
// phase (which never touches the registry) still warms delegations and
// zone outcomes, but the registry validation phase fails like it would
// for any cold resolver, so its outcome stays out of the export — a
// serving resolver's first look-aside walk must validate the registry
// itself and discover the outage, instead of skipping straight past the
// dead link on pre-warmed state it could never have fetched.
func TestWarmInfraUnderOutage(t *testing.T) {
	u, _ := buildUniverse(t, 3)
	cfg := auditorConfig(u).Resolver

	healthy, err := WarmInfraUnder(u, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := healthy.Sizes()
	healthyDel, healthyZones := hs.Delegations, hs.ZoneOutcomes

	plan := &faults.Plan{Seed: 1, Outages: []faults.Window{{Start: 0, End: 1 << 62}}}
	ic, err := WarmInfraUnder(u, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	sz := ic.Sizes()
	delegations, zones := sz.Delegations, sz.ZoneOutcomes
	if delegations == 0 || zones == 0 {
		t.Fatalf("outage warm lost the registry-independent state: %d delegations, %d zone outcomes",
			delegations, zones)
	}
	if zones >= healthyZones || delegations >= healthyDel {
		t.Errorf("outage warm exported as much as a healthy warm (%d/%d delegations, %d/%d zone outcomes) — registry state leaked through the outage",
			delegations, healthyDel, zones, healthyZones)
	}
}
