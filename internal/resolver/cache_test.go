package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"testing/quick"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/gencache"
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
	txt := func(strs ...string) dns.RR {
		return dns.RR{Name: dns.MustName("a.test"), Type: dns.TypeTXT, Data: &dns.TXTData{Strings: strs}}
	}
	if v, ok := txtSignal([]dns.RR{txt("dlv=1")}); !ok || !v {
		t.Fatal("dlv=1 misparsed")
	}
	if v, ok := txtSignal([]dns.RR{txt("v=spf1"), txt("x", "dlv=0")}); !ok || v {
		t.Fatal("dlv=0 after an unrelated TXT misparsed")
	}
	if _, ok := txtSignal([]dns.RR{txt("v=spf1")}); ok {
		t.Fatal("unrelated TXT accepted")
	}
	if _, ok := txtSignal(nil); ok {
		t.Fatal("empty answer accepted")
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
// its entry count and membership of the i-th test key, read without
// moving it.
type tableView struct {
	size int
	has  func(i int) bool
}

func viewOf[K comparable, V any](t *gencache.Cache[K, V], key func(int) K) tableView {
	return tableView{
		size: t.Len(),
		has:  func(i int) bool { _, ok := t.Peek(key(i)); return ok },
	}
}

// TestCacheEviction pins the recency rules of every bounded table of a
// Cache, each capped at 100 entries: a table never holds more than its
// limit, a key read between inserts survives any number of them, and a
// key nothing touched is gone two generations (the limit) of inserts
// later.
func TestCacheEviction(t *testing.T) {
	const limit = 100
	answerKey := func(i int) dns.Key {
		return dns.Key{Name: dns.MustName(fmt.Sprintf("n%d.test", i)), Type: dns.TypeA, Class: dns.ClassIN}
	}
	zone := func(i int) dns.Name { return dns.MustName(fmt.Sprintf("n%d.test", i)) }
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}) }
	readAnswer := func(c *Cache, i int) {
		if _, ok := c.answer(answerKey(i), 10); !ok {
			t.Fatalf("answer %d missed", i)
		}
	}
	cases := []struct {
		name   string
		limits CacheLimits
		store  func(c *Cache, i int)
		read   func(c *Cache, i int)
		view   func(c *Cache) tableView
	}{
		{"positive", CacheLimits{Answers: limit},
			func(c *Cache, i int) { c.storeAnswer(answerKey(i), &coreResult{answer: []dns.RR{{TTL: 1000}}}, 0) },
			readAnswer,
			func(c *Cache) tableView { return viewOf(&c.positive, answerKey) }},
		{"negative", CacheLimits{Answers: limit},
			func(c *Cache, i int) { c.storeAnswer(answerKey(i), &coreResult{rcode: dns.RCodeNXDomain}, 0) },
			readAnswer,
			func(c *Cache) tableView { return viewOf(&c.negative, answerKey) }},
		{"delegations", CacheLimits{Zones: limit},
			func(c *Cache, i int) { c.storeDelegation(zone(i), &delegation{}) },
			func(c *Cache, i int) { c.delegation(zone(i)) },
			func(c *Cache) tableView { return viewOf(&c.zones, zone) }},
		{"zone outcomes", CacheLimits{Zones: limit},
			func(c *Cache, i int) { c.storeZoneStatus(zone(i), zoneOutcome{status: StatusInsecure}) },
			func(c *Cache, i int) { c.outcome(zone(i)) },
			func(c *Cache) tableView { return viewOf(&c.zones, zone) }},
		{"servers", CacheLimits{Zones: limit},
			func(c *Cache, i int) { c.noteSeenServer(addr(i)) },
			func(c *Cache, i int) { c.noteSeenServer(addr(i)) },
			func(c *Cache) tableView { return viewOf(&c.seenServers, addr) }},
		{"ns completed", CacheLimits{Zones: limit},
			func(c *Cache, i int) { c.noteNSCompleted(zone(i)) },
			func(c *Cache, i int) { c.noteNSCompleted(zone(i)) },
			func(c *Cache) tableView { return viewOf(&c.zones, zone) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A key read between inserts is never dropped, and the table
			// never holds more than its limit.
			c := newCache(tc.limits)
			tc.store(c, 0)
			for i := 1; i <= 10_000; i++ {
				tc.store(c, i)
				tc.read(c, 0)
				if v := tc.view(c); v.size > limit || !v.has(0) {
					t.Fatalf("after %d inserts: %d entries (limit %d), read key held %t", i, v.size, limit, v.has(0))
				}
			}

			// Untouched keys: the limit fills two generations; the next
			// insert drops the older one whole.
			c = newCache(tc.limits)
			for i := 0; i < limit; i++ {
				tc.store(c, i)
			}
			if v := tc.view(c); v.size != limit || !v.has(0) {
				t.Fatalf("filled to the limit: %d entries, first key held %t", v.size, v.has(0))
			}
			tc.store(c, limit)
			v := tc.view(c)
			if v.size != limit/2+1 {
				t.Fatalf("after rotation: %d entries, want %d", v.size, limit/2+1)
			}
			for i := 0; i <= limit; i++ {
				if v.has(i) != (i >= limit/2) {
					t.Fatalf("entry %d present=%t, want entries %d..%d", i, v.has(i), limit/2, limit)
				}
			}
		})
	}
}
