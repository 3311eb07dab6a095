package resolver

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// TestSharedCacheConcurrent runs four resolvers, each on its own shard of
// one network, over one shared Cache from four goroutines: hot names asked
// between every other question, cold ones (a deposited and an undeposited
// island, NXDOMAINs) and a glueless delegation whose server address is
// learned mid-walk. The answer, delegation and zone bounds are tight
// enough to evict. No answer may differ from what a lone resolver with a
// private cache gives, and the cache must stay within its bounds.
func TestSharedCacheConcurrent(t *testing.T) {
	u := buildMini(t)
	onShard := func(shared *Cache) func(*Config) {
		return func(c *Config) {
			sh := u.net.NewShard()
			c.Net, c.Clock, c.Cache = sh, sh, shared
		}
	}

	var qs []dns.Question
	for _, n := range []string{"secure.test", "island.test", "lonely.test", "plain.test",
		"glueless.test", "www.secure.test", "ns.plain.test"} {
		for _, qt := range []dns.Type{dns.TypeA, dns.TypeAAAA} {
			qs = append(qs, dns.Question{Name: dns.MustName(n), Type: qt, Class: dns.ClassIN})
		}
	}
	for i := 0; i < 40; i++ {
		qs = append(qs, dns.Question{Name: dns.MustName(fmt.Sprintf("cold%d.test", i)), Type: dns.TypeA, Class: dns.ClassIN})
	}
	hot := qs[:2]

	// A lone resolver answers each question once fresh and once from its
	// cache, the same both times; every walker's answer must be that one.
	ref := u.miniResolver(t, onShard(nil))
	want := make(map[dns.Question]*Result, len(qs))
	for _, q := range qs {
		for i := 0; i < 2; i++ {
			res, err := ref.Resolve(q.Name, q.Type)
			if err != nil {
				t.Fatalf("lone resolver: %s/%s: %v", q.Name, q.Type, err)
			}
			res.Elapsed = 0
			if w, ok := want[q]; ok && !reflect.DeepEqual(res, w) {
				t.Errorf("lone resolver: %s/%s answered %+v fresh, %+v cached", q.Name, q.Type, w, res)
			}
			want[q] = res
		}
	}

	limits := CacheLimits{Answers: 16, Zones: 8}
	shared := NewCache(limits, u.net.Now())
	const walkers = 4
	rs := make([]*Resolver, walkers)
	for i := range rs {
		rs[i] = u.miniResolver(t, onShard(shared))
	}
	var wg sync.WaitGroup
	for g, r := range rs {
		wg.Add(1)
		go func(g int, r *Resolver) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range qs {
					for _, q := range []dns.Question{qs[(k+7*g)%len(qs)], hot[k%len(hot)]} {
						res, err := r.Resolve(q.Name, q.Type)
						if err != nil {
							t.Errorf("walker %d: %s/%s: %v", g, q.Name, q.Type, err)
							return
						}
						res.Elapsed = 0
						if w := want[q]; !reflect.DeepEqual(res, w) {
							t.Errorf("walker %d: %s/%s answered %+v, a lone resolver %+v", g, q.Name, q.Type, res, w)
							return
						}
					}
				}
			}
		}(g, r)
	}
	wg.Wait()

	got := shared.Sizes()
	for _, c := range []struct {
		what      string
		size, cap int
	}{
		{"positive answers", got.Positive, limits.Answers},
		{"negative answers", got.Negative, limits.Answers},
		{"delegations", got.Delegations, limits.Zones},
		{"zone outcomes", got.ZoneOutcomes, limits.Zones},
		{"servers", got.Servers, limits.Zones},
		{"NS completions", got.NSCompleted, limits.Zones},
	} {
		if c.size > c.cap {
			t.Errorf("%s: %d entries, over the bound of %d", c.what, c.size, c.cap)
		}
	}
	if got.Positive == 0 || got.Delegations == 0 {
		t.Errorf("shared cache holds nothing: %+v", got)
	}
}

// TestPlumbingEntryDoesNotAnswerStub: resolving glueless.test learns its
// server's address through a plumbing lookup of ns.plain.test/A, which the
// answer cache holds unvalidated. A stub asking ns.plain.test/A next must
// get what a fresh resolver gives it, validated, not that entry — neither
// through Resolve nor through CachedResponse. The stub's resolution then
// replaces the entry, and CachedResponse serves it.
func TestPlumbingEntryDoesNotAnswerStub(t *testing.T) {
	u := buildMini(t)
	ns := dns.MustName("ns.plain.test")
	fresh, err := u.miniResolver(t, nil).Resolve(ns, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Status != StatusInsecure {
		t.Fatalf("fresh %s/A: status %v, want insecure", ns, fresh.Status)
	}

	r := u.miniResolver(t, nil)
	if _, err := r.Resolve(dns.MustName("glueless.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(1, ns, dns.TypeA, true)
	if resp, ok := r.CachedResponse(q); ok {
		t.Errorf("CachedResponse served the plumbing entry: %+v", resp)
	}
	got, err := r.Resolve(ns, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	got.Elapsed, fresh.Elapsed = 0, 0
	if !reflect.DeepEqual(got, fresh) {
		t.Errorf("%s/A after glueless.test answered %+v, a fresh resolver %+v", ns, got, fresh)
	}
	if _, ok := r.CachedResponse(q); !ok {
		t.Error("the stub's validated answer was not cached")
	}
}
