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

func TestCacheEviction(t *testing.T) {
	key := func(i int) dns.Key {
		return dns.Key{Name: dns.MustName(fmt.Sprintf("n%d.test", i)), Type: dns.TypeA, Class: dns.ClassIN}
	}
	// An expired run at the queue head is dropped wholesale before any
	// live entry is touched: fill to the cap with the oldest half expired,
	// and the next store must reclaim all of them and no live ones.
	c := newCache(CacheLimits{Answers: 100})
	for i := 0; i < 100; i++ {
		expires := uint32(50) // entries 0..49 expired at now=60
		if i >= 50 {
			expires = 1000
		}
		c.storePositive(key(i), posEntry{expires: expires}, 10)
	}
	c.storePositive(key(100), posEntry{expires: 1000}, 60)
	if len(c.positive) != 51 {
		t.Fatalf("after expiry-first eviction: %d entries, want 51", len(c.positive))
	}
	for i := 50; i <= 100; i++ {
		if _, ok := c.positive[key(i)]; !ok {
			t.Fatalf("live entry %d evicted while expired entries headed the queue", i)
		}
	}

	// With nothing expired, each insert past the cap evicts exactly the
	// oldest entry — deterministic strict FIFO, independent of map
	// iteration order, and O(1) per insert rather than a full-cache scan.
	c = newCache(CacheLimits{Answers: 100})
	for i := 0; i < 103; i++ {
		c.storePositive(key(i), posEntry{expires: 1000}, 10)
	}
	if len(c.positive) != 100 {
		t.Fatalf("after FIFO eviction: %d entries, want 100", len(c.positive))
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.positive[key(i)]; ok {
			t.Fatalf("oldest entry %d survived FIFO eviction", i)
		}
	}
	for i := 3; i < 103; i++ {
		if _, ok := c.positive[key(i)]; !ok {
			t.Fatalf("newer entry %d evicted", i)
		}
	}

	// Overwriting a key keeps its original queue position and never grows
	// the order queue.
	c = newCache(CacheLimits{Answers: 100})
	for i := 0; i < 50; i++ {
		c.storePositive(key(0), posEntry{expires: uint32(i)}, 10)
	}
	if len(c.positive) != 1 || len(c.posOrder.keys)-c.posOrder.head != 1 {
		t.Fatalf("overwrites grew the cache: %d entries, %d order slots",
			len(c.positive), len(c.posOrder.keys)-c.posOrder.head)
	}

	// The order queue's backing array stays bounded under sustained
	// insert/evict churn (the popped prefix is compacted away), so
	// steady-state memory is set by the limit, not the insert count.
	c = newCache(CacheLimits{Answers: 100})
	for i := 0; i < 10_000; i++ {
		c.storePositive(key(i), posEntry{expires: 1000}, 10)
	}
	if got := len(c.posOrder.keys); got > 400 {
		t.Fatalf("order queue grew to %d slots for a 100-entry cache", got)
	}
}
