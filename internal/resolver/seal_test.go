package resolver

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// answerOf is a positive answer from zone n, live for 1<<30 seconds.
func answerOf(n dns.Name) *coreResult {
	return &coreResult{answer: []dns.RR{{Name: n, Type: dns.TypeA, Class: dns.ClassIN, TTL: 1 << 30}}, zone: n}
}

// populatedCache builds an unsealed Cache with a few entries of every kind,
// returning the zone names it used.
func populatedCache() (*Cache, []dns.Name) {
	c := NewCache(CacheLimits{}, 0)
	names := make([]dns.Name, 0, 8)
	for i := 0; i < 8; i++ {
		n := dns.MustName(fmt.Sprintf("tld%d.", i))
		names = append(names, n)
		c.storeDelegation(n, &delegation{parent: dns.Root})
		c.storeZoneStatus(n, zoneOutcome{status: StatusSecure, signed: true})
		c.addSpan(n, span{
			owner:   dns.MustName("a." + string(n)),
			next:    dns.MustName("z." + string(n)),
			expires: 1 << 30,
		}, 0)
		c.storeAnswer(dns.Key{Name: n, Type: dns.TypeA, Class: dns.ClassIN}, answerOf(n), 0)
		c.storeAnswer(dns.Key{Name: n, Type: dns.TypeAAAA, Class: dns.ClassIN}, &coreResult{rcode: dns.RCodeNXDomain, zone: n}, 0)
		c.noteSeenServer(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}))
		c.noteNSCompleted(n)
	}
	return c, names
}

// TestSealIdempotent pins that Seal can be called more than once — including
// concurrently — without changing the cache: sizes, lookups, and the sealed
// flag are identical after the first call and every later one.
func TestSealIdempotent(t *testing.T) {
	c, names := populatedCache()
	if c.Sealed() {
		t.Fatal("fresh cache reports sealed")
	}
	c.Seal()
	if !c.Sealed() {
		t.Fatal("Seal did not seal")
	}
	n := len(names)
	want := CacheSizes{Positive: n, Negative: n, Zones: n, Delegations: n, ZoneOutcomes: n, Servers: n, NSCompleted: n, Spans: n}
	if got := c.Sizes(); got != want {
		t.Fatalf("sealed sizes = %+v, want %+v", got, want)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Seal()
		}()
	}
	wg.Wait()
	if got := c.Sizes(); got != want {
		t.Errorf("repeated Seal changed sizes: %+v -> %+v", want, got)
	}
	for _, n := range names {
		if _, ok := c.delegation(n); !ok {
			t.Errorf("delegation %s lost after repeated Seal", n)
		}
		if _, ok := c.outcome(n); !ok {
			t.Errorf("outcome %s lost after repeated Seal", n)
		}
	}
}

// TestWritesAfterSealIgnored pins the read-mostly contract the worker pools
// rely on: once sealed, every store method is a no-op (no new entries, no
// overwrites, no evictions), and concurrent writers racing against
// lock-free readers are safe — run under -race this is the memory-model
// half of the guarantee.
func TestWritesAfterSealIgnored(t *testing.T) {
	c, names := populatedCache()
	c.Seal()
	before := make(map[dns.Name]zoneOutcome, len(names))
	for _, n := range names {
		out, ok := c.outcome(n)
		if !ok {
			t.Fatalf("outcome %s missing after seal", n)
		}
		before[n] = out
	}
	sizes := c.Sizes()
	var buf [256]byte
	// zm.<zone> falls outside the populated a..z span; a late span would
	// cover it.
	uncovered := func(n dns.Name) []byte { return dns.AppendSortKey(buf[:0], dns.MustName("zm."+string(n))) }

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// New names and overwrites of existing ones: both must be
				// dropped on the floor.
				fresh := dns.MustName(fmt.Sprintf("late%d-%d.", w, i))
				old := names[i%len(names)]
				for _, n := range []dns.Name{fresh, old} {
					c.storeAnswer(dns.Key{Name: n, Type: dns.TypeMX, Class: dns.ClassIN}, answerOf(n), 0)
					c.storeAnswer(dns.Key{Name: n, Type: dns.TypeMX, Class: dns.ClassIN}, &coreResult{rcode: dns.RCodeNXDomain, zone: n}, 0)
					c.storeDelegation(n, &delegation{parent: dns.Root})
					c.storeZoneStatus(n, zoneOutcome{status: StatusBogus})
					c.noteNSCompleted(n)
					c.addSpan(n, span{owner: dns.MustName("z." + string(n)), next: dns.MustName("zz." + string(n)), expires: 1 << 30}, 0)
				}
				if d, ok := c.delegation(old); ok {
					c.replaceDelegation(old, d, &delegation{parent: fresh})
				}
				c.noteSeenServer(netip.AddrFrom4([4]byte{10, 1, byte(w), byte(i)}))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [256]byte
			for i := 0; i < 50; i++ {
				n := names[i%len(names)]
				if d, ok := c.delegation(n); !ok || d.parent != dns.Root {
					t.Errorf("delegation %s vanished or changed", n)
				}
				if out, ok := c.outcome(n); !ok || out.status != StatusSecure {
					t.Errorf("outcome %s changed under concurrent writes", n)
				}
				if !c.spanCovers(n, dns.AppendSortKey(buf[:0], dns.MustName("m."+string(n))), 0) {
					t.Errorf("sealed span of %s stopped covering", n)
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Sizes(); got != sizes {
		t.Errorf("writes after Seal changed sizes: %+v -> %+v", sizes, got)
	}
	for _, n := range names {
		out, ok := c.outcome(n)
		if !ok || !reflect.DeepEqual(out, before[n]) {
			t.Errorf("outcome %s replaced after Seal", n)
		}
		if d, _ := c.delegation(n); d.parent != dns.Root {
			t.Errorf("delegation %s replaced after Seal", n)
		}
		if c.spanCovers(n, uncovered(n), 0) {
			t.Errorf("post-seal span of %s took effect", n)
		}
		if _, ok := c.answer(dns.Key{Name: n, Type: dns.TypeMX, Class: dns.ClassIN}, 0); ok {
			t.Errorf("post-seal answer for %s took effect", n)
		}
	}
	if _, ok := c.delegation(dns.MustName("late0-0.")); ok {
		t.Error("post-seal storeDelegation took effect")
	}
	if c.noteSeenServer(netip.AddrFrom4([4]byte{10, 1, 0, 0})) {
		t.Error("post-seal noteSeenServer took effect")
	}
}
