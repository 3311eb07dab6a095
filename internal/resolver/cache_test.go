package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

func span4(owner, next string, expires uint32) span {
	return span{owner: dns.MustName(owner), next: dns.MustName(next), expires: expires}
}

func TestSpanStoreBasics(t *testing.T) {
	s := &spanStore{}
	s.add(span4("alpha.dlv.test", "delta.dlv.test", 100), 0)
	if !s.covers(dns.MustName("beta.dlv.test"), 50) {
		t.Fatal("covered name not found")
	}
	if s.covers(dns.MustName("zeta.dlv.test"), 50) {
		t.Fatal("uncovered name matched")
	}
	if s.covers(dns.MustName("alpha.dlv.test"), 50) {
		t.Fatal("span owner itself must not be covered (it exists)")
	}
	// Expiry.
	if s.covers(dns.MustName("beta.dlv.test"), 200) {
		t.Fatal("expired span still covering")
	}
}

func TestSpanStoreWrapAround(t *testing.T) {
	s := &spanStore{}
	// Last NSEC wraps to the apex.
	s.add(span4("zz.dlv.test", "dlv.test", 100), 0)
	if !s.covers(dns.MustName("zzz.dlv.test"), 50) {
		t.Fatal("wrap-around span not covering past the last owner")
	}
	if s.covers(dns.MustName("aa.dlv.test"), 50) {
		t.Fatal("wrap span covering inside the chain")
	}
}

func TestSpanStoreMergeAndDedup(t *testing.T) {
	s := &spanStore{}
	// Force several merges through the tail limit, with duplicate owners
	// carrying different expiries.
	for round := 0; round < 3; round++ {
		for i := 0; i < tailLimit; i++ {
			owner := fmt.Sprintf("n%04d.dlv.test", i)
			next := fmt.Sprintf("n%04d.dlv.test", i+1)
			s.add(span4(owner, next, uint32(100+round)), 0)
		}
	}
	if s.size() > tailLimit+1 {
		t.Fatalf("dedup failed: size = %d", s.size())
	}
	// The freshest expiry wins.
	if !s.covers(dns.MustName("n0000x.dlv.test"), 102) {
		t.Fatal("refreshed span lost")
	}
}

func TestSpanStoreCoverageProperty(t *testing.T) {
	// Build a random chain; every probe must be classified identically by
	// the store and by a linear scan over the spans.
	rng := rand.New(rand.NewSource(3))
	var names []dns.Name
	seen := map[dns.Name]bool{}
	for len(names) < 300 {
		n := dns.MustName(fmt.Sprintf("%s.dlv.test", randomChainLabel(rng)))
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return dns.CanonicalLess(names[i], names[j]) })
	s := &spanStore{}
	var linear []span
	for i := range names {
		next := dns.MustName("dlv.test")
		if i+1 < len(names) {
			next = names[i+1]
		}
		sp := span{owner: names[i], next: next, expires: 1000}
		// Insert in a shuffled order to exercise tail/merge paths.
		linear = append(linear, sp)
	}
	rng.Shuffle(len(linear), func(i, j int) { linear[i], linear[j] = linear[j], linear[i] })
	for _, sp := range linear {
		s.add(sp, 0)
	}

	prop := func(seed int64) bool {
		probe := dns.MustName(fmt.Sprintf("%s.dlv.test", randomChainLabel(rand.New(rand.NewSource(seed)))))
		want := false
		for _, sp := range linear {
			if covered(probe, sp.owner, sp.next) {
				want = true
			}
		}
		return s.covers(probe, 500) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randomChainLabel(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, 2+r.Intn(10))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func TestReverseName(t *testing.T) {
	got, err := reverseName(netip.MustParseAddr("192.0.2.53"))
	if err != nil {
		t.Fatal(err)
	}
	if got != dns.MustName("53.2.0.192.in-addr.arpa") {
		t.Fatalf("reverseName = %s", got)
	}
	if _, err := reverseName(netip.MustParseAddr("2001:db8::1")); err == nil {
		t.Fatal("IPv6 reverse accepted")
	}
}

func TestTTLHelpers(t *testing.T) {
	rrs := []dns.RR{
		{TTL: 300}, {TTL: 60}, {TTL: 900},
	}
	if got := minTTL(rrs); got != 60 {
		t.Fatalf("minTTL = %d", got)
	}
	if got := minTTL(nil); got != defaultPositiveTTL {
		t.Fatalf("minTTL(nil) = %d", got)
	}
	soa := []dns.RR{{
		Name: dns.MustName("example.com"), Type: dns.TypeSOA, TTL: 3600,
		Data: &dns.SOAData{MinTTL: 300},
	}}
	if got := negativeTTLFrom(soa); got != 300 {
		t.Fatalf("negativeTTLFrom = %d", got)
	}
	soa[0].TTL = 120 // SOA TTL lower than MinTTL caps the negative TTL
	if got := negativeTTLFrom(soa); got != 120 {
		t.Fatalf("negativeTTLFrom capped = %d", got)
	}
	if got := negativeTTLFrom(nil); got != defaultNegativeTTL {
		t.Fatalf("negativeTTLFrom(nil) = %d", got)
	}
}

func TestParseTXTSignal(t *testing.T) {
	if v, ok := parseTXTSignal([]string{"dlv=1"}); !ok || !v {
		t.Fatal("dlv=1 misparsed")
	}
	if v, ok := parseTXTSignal([]string{"x", "dlv=0"}); !ok || v {
		t.Fatal("dlv=0 misparsed")
	}
	if _, ok := parseTXTSignal([]string{"v=spf1"}); ok {
		t.Fatal("unrelated TXT accepted")
	}
}

func TestStripSigsAndHasRRSIG(t *testing.T) {
	rrs := []dns.RR{
		{Name: dns.MustName("a.test"), Type: dns.TypeA, Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: dns.MustName("a.test"), Type: dns.TypeRRSIG, Data: &dns.RRSIGData{TypeCovered: dns.TypeA}},
	}
	if !hasRRSIG(rrs) {
		t.Fatal("hasRRSIG missed")
	}
	stripped := stripSigs(rrs)
	if len(stripped) != 1 || stripped[0].Type != dns.TypeA {
		t.Fatalf("stripSigs = %v", stripped)
	}
	if hasRRSIG(stripped) {
		t.Fatal("sig survived strip")
	}
}

// tableView is what TestCacheEviction reads of one of a Cache's tables:
// its entry count, its queue (live slots and backing length) and
// membership of the i-th test key.
type tableView struct {
	size, queued, slots int
	has                 func(i int) bool
}

func viewOf[K comparable, V any](t *table[K, V], key func(int) K) tableView {
	return tableView{
		size: len(t.m), queued: len(t.order) - t.head, slots: len(t.order),
		has: func(i int) bool { _, ok := t.m[key(i)]; return ok },
	}
}

// TestCacheEviction pins the eviction order of every bounded table of a
// Cache, each capped at 100 entries: the two answer tables drop the expired
// run at the queue head first, the four without TTLs evict strictly FIFO,
// an overwrite keeps its queue position, and the order queue stays bounded
// under churn.
func TestCacheEviction(t *testing.T) {
	answerKey := func(i int) dns.Key {
		return dns.Key{Name: dns.MustName(fmt.Sprintf("n%d.test", i)), Type: dns.TypeA, Class: dns.ClassIN}
	}
	zone := func(i int) dns.Name { return dns.MustName(fmt.Sprintf("n%d.test", i)) }
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}) }
	cases := []struct {
		name   string
		limits CacheLimits
		ttl    bool
		store  func(c *Cache, i int, expires, now uint32)
		view   func(c *Cache) tableView
	}{
		{"positive", CacheLimits{Answers: 100}, true,
			func(c *Cache, i int, expires, now uint32) {
				c.storePositive(answerKey(i), posEntry{expires: expires}, now)
			},
			func(c *Cache) tableView { return viewOf(&c.positive, answerKey) }},
		{"negative", CacheLimits{Answers: 100}, true,
			func(c *Cache, i int, expires, now uint32) {
				c.storeNegative(answerKey(i), negEntry{expires: expires}, now)
			},
			func(c *Cache) tableView { return viewOf(&c.negative, answerKey) }},
		{"delegations", CacheLimits{Delegations: 100}, false,
			func(c *Cache, i int, _, _ uint32) { c.storeDelegation(zone(i), &delegation{}) },
			func(c *Cache) tableView { return viewOf(&c.delegations, zone) }},
		{"zone outcomes", CacheLimits{Zones: 100}, false,
			func(c *Cache, i int, _, _ uint32) { c.storeZoneStatus(zone(i), &zoneOutcome{}) },
			func(c *Cache) tableView { return viewOf(&c.zoneStatus, zone) }},
		{"servers", CacheLimits{Servers: 100}, false,
			func(c *Cache, i int, _, _ uint32) { c.noteSeenServer(addr(i)) },
			func(c *Cache) tableView { return viewOf(&c.seenServers, addr) }},
		{"ns completed", CacheLimits{Zones: 100}, false,
			func(c *Cache, i int, _, _ uint32) { c.noteNSCompleted(zone(i)) },
			func(c *Cache) tableView { return viewOf(&c.nsCompleted, zone) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fill to the cap with the oldest half expired at now=60. A
			// table with TTLs reclaims that whole run, and no live entry,
			// on the next insert; one without evicts only the oldest.
			c := newCache(tc.limits)
			for i := 0; i < 100; i++ {
				expires := uint32(50)
				if i >= 50 {
					expires = 1000
				}
				tc.store(c, i, expires, 10)
			}
			tc.store(c, 100, 1000, 60)
			v := tc.view(c)
			first, size := 1, 100
			if tc.ttl {
				first, size = 50, 51
			}
			if v.size != size {
				t.Fatalf("after inserting past the cap: %d entries, want %d", v.size, size)
			}
			for i := 0; i <= 100; i++ {
				if v.has(i) != (i >= first) {
					t.Fatalf("entry %d present=%t, want entries %d..100", i, v.has(i), first)
				}
			}

			// With nothing expired, each insert past the cap evicts
			// exactly the oldest entry — strict FIFO, independent of map
			// iteration order.
			c = newCache(tc.limits)
			for i := 0; i < 103; i++ {
				tc.store(c, i, 1000, 10)
			}
			v = tc.view(c)
			if v.size != 100 {
				t.Fatalf("after FIFO eviction: %d entries, want 100", v.size)
			}
			for i := 0; i < 103; i++ {
				if v.has(i) != (i >= 3) {
					t.Fatalf("entry %d present=%t, want entries 3..102", i, v.has(i))
				}
			}

			// Storing an existing key again keeps its original queue
			// position: the oldest key, rewritten, is still evicted first.
			c = newCache(tc.limits)
			for i := 0; i < 100; i++ {
				tc.store(c, i, 1000, 10)
			}
			for n := 0; n < 50; n++ {
				tc.store(c, 0, 1000, 10)
			}
			if v = tc.view(c); v.size != 100 || v.queued != 100 {
				t.Fatalf("rewrites grew the table: %d entries, %d queued", v.size, v.queued)
			}
			tc.store(c, 100, 1000, 10)
			if v = tc.view(c); v.has(0) || !v.has(1) {
				t.Fatalf("rewritten key moved in the queue: 0 present=%t, 1 present=%t", v.has(0), v.has(1))
			}

			// The order queue's backing array stays bounded under
			// sustained insert/evict churn (the popped prefix is compacted
			// away), so steady-state memory is set by the limit, not the
			// insert count.
			c = newCache(tc.limits)
			for i := 0; i < 10_000; i++ {
				tc.store(c, i, 1000, 10)
			}
			if v = tc.view(c); v.slots > 400 {
				t.Fatalf("order queue grew to %d slots for a 100-entry table", v.slots)
			}
		})
	}
}
