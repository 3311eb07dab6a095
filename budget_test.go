package lookaside

// Budget tests: allocation ceilings and steady-state memory readings for the
// hot paths, pinned so a regression fails here rather than in a profile.
// Timings and throughput live in bench/ (bench/README.md).

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/universe"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// allocBudgetExchange bounds one warm exchange (pooled query encode,
// question-only server-side decode, packet-cache hit cloned to the caller,
// wire served by ID patch, tap accounting): measured 7 allocs/op, pinned
// with headroom.
const allocBudgetExchange = 10

// allocBudgetPerDomain bounds the steady-state allocations of auditing one
// fresh domain on a warm shard with shared infrastructure: wire exchanges
// for the delegation walk, signature checks against the verification
// cache, lazy SLD-zone materialization, capture accounting. Measured ~97
// allocs/domain after the pooled-scratch diet (query/signing/HMAC scratch
// reuse, shared packet-cache sections, canonical-name fast paths); pinned
// with headroom so a regression (say, a cache that stops hitting) fails
// here rather than in a profile.
const allocBudgetPerDomain = 150

// newExchangeBench wires one signed zone behind an authoritative server on
// a fresh network and returns the exchange closure plus the network (so the
// fault budget can install a plan on the same setup).
func newExchangeBench(tb testing.TB) (func(id uint16), *simnet.Network) {
	tb.Helper()
	z, err := zone.New(zone.Config{Apex: dns.MustName("example.com"), Serial: 1})
	if err != nil {
		tb.Fatal(err)
	}
	www := dns.MustName("www.example.com")
	if err := z.Add(dns.RR{
		Name: www, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: addr4(192, 0, 2, 80)},
	}); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ksk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		tb.Fatal(err)
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone, rng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31, Rand: rng}); err != nil {
		tb.Fatal(err)
	}
	srv, err := authserver.New(authserver.Config{Name: "ns"}, z)
	if err != nil {
		tb.Fatal(err)
	}
	net := simnet.New()
	client := addr4(10, 0, 0, 1)
	server := addr4(192, 0, 2, 53)
	if err := net.Register(server, "ns.example.com", simnet.RoleSLD, time.Millisecond, srv); err != nil {
		tb.Fatal(err)
	}
	return func(id uint16) {
		q := dns.NewQuery(id, www, dns.TypeA, true)
		resp, err := net.Exchange(client, server, q)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Header.ID != id || len(resp.Answer) == 0 {
			tb.Fatalf("bad response: id=%#x answers=%d", resp.Header.ID, len(resp.Answer))
		}
	}, net
}

func addr4(a, b, c, d byte) netip.Addr {
	return netip.AddrFrom4([4]byte{a, b, c, d})
}

func TestExchangeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	exchange, _ := newExchangeBench(t)
	exchange(0) // warm up
	id := uint16(1)
	got := testing.AllocsPerRun(200, func() {
		exchange(id)
		id++
	})
	if got > allocBudgetExchange {
		t.Errorf("one warm exchange = %.1f allocs, budget %d", got, allocBudgetExchange)
	}
}

// TestFaultedExchangeAllocationBudget pins that a metered (zero-plan)
// exchange stays within the same allocation budget as a plan-free one: the
// fault layer adds decisions, not allocations.
func TestFaultedExchangeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	exchange, net := newExchangeBench(t)
	net.SetFaultPlan(addr4(192, 0, 2, 53), faults.Plan{Seed: 1})
	exchange(0) // warm up
	id := uint16(1)
	got := testing.AllocsPerRun(200, func() {
		exchange(id)
		id++
	})
	if got > allocBudgetExchange {
		t.Errorf("one warm metered exchange = %.1f allocs, budget %d", got, allocBudgetExchange)
	}
	if _, ok := net.FaultStats(addr4(192, 0, 2, 53)); !ok {
		t.Fatal("fault stats vanished")
	}
}

// TestSweepSteadyStateMemory pins the bounded-cache contract behind the
// sweep's heap ceiling: with tight resolver cache limits, the live heap
// after auditing block k+1 must sit close to the heap after block k. The
// recency-bounded caches drop what the last generations did not touch, so
// only the intentionally unbounded state — capture's per-domain leak ledger
// — may grow, plus the decoder's intern table while it still fills its
// slots (it is bounded at about 3 MB), and that costs a few hundred bytes
// per domain, not the kilobytes a leaking cache would.
func TestSweepSteadyStateMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-block audit run")
	}
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: 1, Population: pop, Extra: dataset.SecureDomains(),
		// Steady-state means *every* cache is bounded below the population:
		// SLD zones, authoritative packet caches, and (below) the resolver's
		// caches. Anything unbounded shows up as per-domain heap growth.
		// Per-server caps must saturate inside the first block: queries
		// spread over dozens of servers, so a cap near the block size would
		// let every cache accrete for the whole run and read as a leak.
		ZoneCacheCap: 512, PacketCacheCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Limits = resolver.CacheLimits{
		Answers: 256, Zones: 256, Spans: 256,
	}
	ic, err := core.WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Infra = ic
	a, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
	if err != nil {
		t.Fatal(err)
	}

	domains := pop.Top(4000)
	heapAfter := func() uint64 {
		// Two collections: the first moves sync.Pool scratches (query
		// buffers, signing state) to the victim cache, the second drops
		// them, so the reading is live data rather than pool phase.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const blocks, blockSize = 4, 1000
	var marks [blocks]uint64
	for i := 0; i < blocks; i++ {
		if err := a.QueryDomains(domains[i*blockSize : (i+1)*blockSize]); err != nil {
			t.Fatal(err)
		}
		marks[i] = heapAfter()
	}
	// Caches are saturated by the end of block 2; from there the marginal
	// growth is the per-domain ledger and the intern table's filling slots.
	// Measured 475-501 B/domain (six runs, one under -race); the limit
	// is that plus about half again, far below what unbounded caching leaks.
	const limit = 768
	growth := int64(marks[blocks-1]) - int64(marks[1])
	perDomain := growth / ((blocks - 2) * blockSize)
	t.Logf("steady-state heap: marks=%v growth=%d B (%d B/domain)", marks, growth, perDomain)
	if perDomain > limit {
		t.Errorf("heap grew %d B/domain in steady state (limit %d): cache eviction not holding", perDomain, limit)
	}
}

// TestAuthoritativeSteadyStateMemory is the same reading taken on the
// authoritative side: what the infrastructure zones retain per cold name
// once one of them has been asked about more names than its caches hold.
// The zones are asked directly — the referral, the DS query that follows it,
// the look-aside query at the registry — so neither a resolver's caches nor
// the decoder's name table is in the reading, and only the largest TLD's
// names are asked, because a zone with fewer names than its caches hold is
// still filling them when the run ends. Derived records and signatures are
// held by recency, so a further name retains nothing; a cache sized by the
// population retains about 500 B for every name it has ever been asked.
func TestAuthoritativeSteadyStateMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	if testing.Short() {
		t.Skip("multi-block run on a 100k universe")
	}
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{Seed: 1, Population: pop, Extra: dataset.SecureDomains()})
	if err != nil {
		t.Fatal(err)
	}
	var com, registry *zone.Zone
	for _, z := range u.InfraZones() {
		switch z.Apex() {
		case dns.MustName("com"):
			com = z
		case u.RegistryZone:
			registry = z
		}
	}
	var names []dns.Name
	for i := range pop.Domains {
		if pop.Domains[i].TLD() == "com" {
			names = append(names, pop.Domains[i].Name)
		}
	}
	const blocks, blockSize = 4, 10_000
	if com == nil || registry == nil || len(names) < blocks*blockSize {
		t.Fatalf("fixture: com zone %t, registry zone %t, %d com names", com != nil, registry != nil, len(names))
	}
	ask := func(z *zone.Zone, name dns.Name, typ dns.Type) {
		if _, err := z.Lookup(name, typ, true); err != nil {
			t.Fatalf("%s: Lookup(%s, %s): %v", z.Apex(), name, typ, err)
		}
	}
	heapAfter := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var marks [blocks]uint64
	for b := 0; b < blocks; b++ {
		for _, name := range names[b*blockSize : (b+1)*blockSize] {
			ask(com, name, dns.TypeA)
			ask(com, name, dns.TypeDS)
			owner, err := dlv.LookasideName(name, u.RegistryZone, false)
			if err != nil {
				t.Fatal(err)
			}
			ask(registry, owner, dns.TypeDLV)
		}
		marks[b] = heapAfter()
	}
	if held := com.MaterializedNames(); held >= blockSize {
		t.Fatalf("com holds %d owners' records after %d names", held, blocks*blockSize)
	}
	// The first block builds the owner indexes and fills both generations
	// of every cache; growth is read from the end of the second.
	growth := int64(marks[blocks-1]) - int64(marks[1])
	perName := growth / ((blocks - 2) * blockSize)
	t.Logf("authoritative steady-state heap: marks=%v growth=%d B (%d B/name)", marks, growth, perName)
	if perName >= 64 {
		t.Errorf("authoritative heap grew %d B per cold name in steady state (limit 64)", perName)
	}
}

// TestSweepAllocationBudget pins the steady-state allocation cost of the
// sweep's inner loop: with infrastructure warmed and shared, auditing a
// fresh domain must stay under allocBudgetPerDomain allocations.
func TestSweepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: 1, Population: pop, Extra: dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	ic, err := core.WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Infra = ic
	a, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
	if err != nil {
		t.Fatal(err)
	}
	domains := pop.Top(2000)
	// Warm the shard: TLD glue interning, verification cache, lazy SLD
	// synthesis machinery all settle over the first block.
	if err := a.QueryDomains(domains[:500]); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun(10, f) calls f 11 times (one warm-up run), 100 fresh
	// domains each.
	block := domains[500:1600]
	next := 0
	got := testing.AllocsPerRun(10, func() {
		if err := a.QueryDomains(block[next*100 : (next+1)*100]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	perDomain := got / 100
	t.Logf("measured %.0f allocs/domain", perDomain)
	if perDomain > allocBudgetPerDomain {
		t.Errorf("steady state = %.0f allocs/domain, budget %d", perDomain, allocBudgetPerDomain)
	}
}

// sldZoneBudgetBytes and sldZoneBudgetAllocs bound what one materialized
// SLD zone costs, in live heap and in allocations to build it, averaged
// over TestSLDZoneFootprint's 10k seed-1 domains (1.5 % of them signed).
// Measured 785 B and 14.8 allocs with the zone's one owner table; the
// map-indexed layout before it measured 2,151 B and 27.3 allocs.
const (
	sldZoneBudgetBytes  = 1000
	sldZoneBudgetAllocs = 16
)

// TestSLDZoneFootprint pins the per-domain zone cost that the universe's
// SLD zone cache multiplies by its cap (universe.Options.ZoneCacheCap,
// 8,192 by default): every domain of a 10k population is materialized once,
// and the live heap and allocation count that adds are read per zone. The
// cache entry holding the zone is part of the reading.
func TestSLDZoneFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const zones, cacheCap = 10_000, 8192
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: zones, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{Seed: 1, Population: pop, ZoneCacheCap: 2 * zones})
	if err != nil {
		t.Fatal(err)
	}
	read := func() runtime.MemStats {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms
	}
	before := read()
	for i := range pop.Domains {
		if _, err := u.SLDZone(&pop.Domains[i]); err != nil {
			t.Fatal(err)
		}
	}
	after := read()
	if n := u.CachedSLDZones(); n != zones {
		t.Fatalf("%d SLD zones cached, want %d", n, zones)
	}
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / zones
	allocs := float64(after.Mallocs-before.Mallocs) / zones
	t.Logf("one SLD zone: %.0f B live, %.1f allocs to build; %.1f MB at the %d-zone cache cap",
		bytes, allocs, bytes*cacheCap/(1<<20), cacheCap)
	if bytes > sldZoneBudgetBytes {
		t.Errorf("one SLD zone holds %.0f B live, budget %d: %.1f MB at the %d-zone cache cap (budget %.1f MB)",
			bytes, sldZoneBudgetBytes, bytes*cacheCap/(1<<20), cacheCap, sldZoneBudgetBytes*cacheCap/float64(1<<20))
	}
	if allocs > sldZoneBudgetAllocs {
		t.Errorf("building one SLD zone takes %.1f allocs, budget %d", allocs, sldZoneBudgetAllocs)
	}
}
