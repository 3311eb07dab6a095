package resolver

import (
	"fmt"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// populatedInfraCache builds an unsealed cache with a few entries of every
// kind, returning the names it used.
func populatedInfraCache() (*InfraCache, []dns.Name) {
	ic := NewInfraCache()
	names := make([]dns.Name, 0, 8)
	for i := 0; i < 8; i++ {
		n := dns.MustName(fmt.Sprintf("tld%d.", i))
		names = append(names, n)
		ic.putDelegation(n, &delegation{parent: dns.Root})
		ic.putOutcome(n, &zoneOutcome{status: StatusSecure, signed: true})
		st := &spanStore{limit: 64}
		st.add(span{
			owner:   dns.MustName("a." + string(n)),
			next:    dns.MustName("z." + string(n)),
			expires: 1 << 30,
		}, 0)
		ic.putSpans(n, st)
	}
	return ic, names
}

// TestSealIdempotent pins that Seal can be called more than once — including
// concurrently — without changing the cache: sizes, lookups, and the sealed
// flag are identical after the first call and every later one.
func TestSealIdempotent(t *testing.T) {
	ic, names := populatedInfraCache()
	if ic.Sealed() {
		t.Fatal("fresh cache reports sealed")
	}
	ic.Seal()
	if !ic.Sealed() {
		t.Fatal("Seal did not seal")
	}
	d1, z1, s1 := ic.Sizes()
	if d1 != len(names) || z1 != len(names) || s1 != len(names) {
		t.Fatalf("sealed sizes = (%d, %d, %d), want (%d, %d, %d)",
			d1, z1, s1, len(names), len(names), len(names))
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ic.Seal()
		}()
	}
	wg.Wait()
	d2, z2, s2 := ic.Sizes()
	if d2 != d1 || z2 != z1 || s2 != s1 {
		t.Errorf("repeated Seal changed sizes: (%d, %d, %d) -> (%d, %d, %d)",
			d1, z1, s1, d2, z2, s2)
	}
	for _, n := range names {
		if _, ok := ic.delegation(n); !ok {
			t.Errorf("delegation %s lost after repeated Seal", n)
		}
		if _, ok := ic.outcome(n); !ok {
			t.Errorf("outcome %s lost after repeated Seal", n)
		}
	}
}

// TestWritesAfterSealIgnored pins the read-mostly contract the worker pools
// rely on: once sealed, every put is a no-op (no new entries, no
// overwrites), and concurrent writers racing against lock-free readers are
// safe — run under -race this is the memory-model half of the guarantee.
func TestWritesAfterSealIgnored(t *testing.T) {
	ic, names := populatedInfraCache()
	ic.Seal()
	before := make(map[dns.Name]*zoneOutcome, len(names))
	for _, n := range names {
		out, ok := ic.outcome(n)
		if !ok {
			t.Fatalf("outcome %s missing after seal", n)
		}
		before[n] = out
	}
	d1, z1, s1 := ic.Sizes()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// New names and overwrites of existing ones: both must be
				// dropped on the floor.
				fresh := dns.MustName(fmt.Sprintf("late%d-%d.", w, i))
				ic.putDelegation(fresh, &delegation{parent: dns.Root})
				ic.putOutcome(fresh, &zoneOutcome{status: StatusBogus})
				ic.putSpans(fresh, &spanStore{})
				ic.putOutcome(names[i%len(names)], &zoneOutcome{status: StatusBogus})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := names[i%len(names)]
				if _, ok := ic.delegation(n); !ok {
					t.Errorf("delegation %s vanished", n)
				}
				if out, ok := ic.outcome(n); !ok || out.status != StatusSecure {
					t.Errorf("outcome %s changed under concurrent writes", n)
				}
				ic.spanCovers(n, dns.AppendSortKey(nil, dns.MustName("m."+string(n))), 0)
			}
		}()
	}
	wg.Wait()

	d2, z2, s2 := ic.Sizes()
	if d2 != d1 || z2 != z1 || s2 != s1 {
		t.Errorf("writes after Seal changed sizes: (%d, %d, %d) -> (%d, %d, %d)",
			d1, z1, s1, d2, z2, s2)
	}
	for _, n := range names {
		out, ok := ic.outcome(n)
		if !ok || out != before[n] {
			t.Errorf("outcome %s replaced after Seal", n)
		}
	}
	if _, ok := ic.delegation(dns.MustName("late0-0.")); ok {
		t.Error("post-seal putDelegation took effect")
	}
}
