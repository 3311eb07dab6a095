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
// learned mid-walk. The answer, delegation and server bounds are tight
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

	// A lone resolver gives each question one answer fresh and one from its
	// cache (a cached denial carries no validation status); a walker's
	// answer must be one of the two.
	ref := u.miniResolver(t, onShard(nil))
	want := make(map[dns.Question][2]*Result, len(qs))
	for _, q := range qs {
		var pair [2]*Result
		for i := range pair {
			res, err := ref.Resolve(q.Name, q.Type)
			if err != nil {
				t.Fatalf("lone resolver: %s/%s: %v", q.Name, q.Type, err)
			}
			res.Elapsed = 0
			pair[i] = res
		}
		want[q] = pair
	}

	limits := CacheLimits{Answers: 16, Delegations: 4, Zones: 8, Servers: 4}
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
						if w := want[q]; !reflect.DeepEqual(res, w[0]) && !reflect.DeepEqual(res, w[1]) {
							t.Errorf("walker %d: %s/%s answered %+v, a lone resolver %+v or %+v", g, q.Name, q.Type, res, w[0], w[1])
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
		{"delegations", got.Delegations, limits.Delegations},
		{"zone outcomes", got.ZoneOutcomes, limits.Zones},
		{"servers", got.Servers, limits.Servers},
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
