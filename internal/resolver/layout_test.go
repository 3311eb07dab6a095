package resolver

import (
	"testing"
	"unsafe"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// TestEntryLayout pins the size of every per-name value a serving cache
// holds: one zoneRec and one delegation per zone, one posEntry or negEntry
// per answer. At the paper's population these are most of the resolver's
// heap, so a field that re-grows one fails here with what it costs at the
// counts an in-process serve_cold mix (135k uniform queries over 1M names)
// left behind.
func TestEntryLayout(t *testing.T) {
	for _, c := range []struct {
		name        string
		size, want  uintptr
		count       int
		countedWhat string
	}{
		{"zoneRec", unsafe.Sizeof(zoneRec{}), 48, 126_488, "zones"},
		{"delegation", unsafe.Sizeof(delegation{}), 80, 126_488, "zones"},
		{"posEntry", unsafe.Sizeof(posEntry{}), 48, 131_090, "positive answers"},
		{"negEntry", unsafe.Sizeof(negEntry{}), 24, 205_902, "negative answers"},
	} {
		if c.size != c.want {
			grow := (float64(c.size) - float64(c.want)) * float64(c.count) / (1 << 20)
			t.Errorf("%s is %d bytes, pinned at %d: %+.1f MB at %d %s, before map overhead",
				c.name, c.size, c.want, grow, c.count, c.countedWhat)
		}
	}
}

// TestHitPathAllocs holds the lookups serve_hot lives on to their
// allocation counts: an answer-cache hit allocates only the result it
// returns, and a zone cut or outcome read allocates nothing, from the
// resolver's own (unsealed) cache or from the sealed infrastructure cache
// behind it. The budgets are the counts before zone state moved into one
// record per zone.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	zone := dns.MustName("example.com.")
	pos := dns.Key{Name: zone, Type: dns.TypeA, Class: dns.ClassIN}
	neg := dns.Key{Name: zone, Type: dns.TypeAAAA, Class: dns.ClassIN}
	fill := func(c *Cache) *Cache {
		d := newDelegation(dns.MustName("com."))
		d.servers = append(d.servers, nsServer{name: dns.MustName("ns.example.com.")})
		c.storeDelegation(zone, d)
		c.storeZoneStatus(zone, zoneOutcome{status: StatusInsecure})
		c.storeAnswer(pos, answerOf(zone), 0)
		c.storeAnswer(neg, &coreResult{rcode: dns.RCodeNXDomain, zone: zone}, 0)
		return c
	}
	own := &Resolver{cache: fill(NewCache(CacheLimits{}, 0))}
	infra := fill(NewCache(CacheLimits{}, 0))
	infra.Seal()
	behind := &Resolver{cache: NewCache(CacheLimits{}, 0), infra: infra}

	for _, c := range []struct {
		name   string
		budget float64
		fn     func() bool
	}{
		{"positive answer hit", 1, func() bool { _, ok := own.cache.answer(pos, 1); return ok }},
		{"negative answer hit", 1, func() bool { _, ok := own.cache.answer(neg, 1); return ok }},
		{"cachedDelegation, unsealed", 0, func() bool { _, ok := own.cachedDelegation(zone); return ok }},
		{"cachedOutcome, unsealed", 0, func() bool { _, ok := own.cachedOutcome(zone); return ok }},
		{"cachedDelegation, sealed", 0, func() bool { _, ok := behind.cachedDelegation(zone); return ok }},
		{"cachedOutcome, sealed", 0, func() bool { _, ok := behind.cachedOutcome(zone); return ok }},
	} {
		if !c.fn() {
			t.Fatalf("%s: missed", c.name)
		}
		if got := testing.AllocsPerRun(100, func() { c.fn() }); got > c.budget {
			t.Errorf("%s: %v allocations, budget %v", c.name, got, c.budget)
		}
	}
}
