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
