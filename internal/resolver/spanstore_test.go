package resolver

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// covered is NSEC coverage written directly on CanonicalCompare — name falls
// strictly between lower and next, the interval wrapping at the apex when
// next is not after lower — and is what the keyed span store must agree with.
func covered(name, lower, next dns.Name) bool {
	if dns.CanonicalLess(lower, next) {
		return dns.CanonicalLess(lower, name) && dns.CanonicalLess(name, next)
	}
	return dns.CanonicalLess(lower, name) || dns.CanonicalLess(name, next)
}

// covers asks the store about a name the way Resolver.spanCovers does: probe
// key in a stack buffer, then coversKey.
func (s *spanStore) covers(name dns.Name, now uint32) bool {
	var buf [256]byte
	return s.coversKey(dns.AppendSortKey(buf[:0], name), now)
}

// chainName draws a name of one to three labels under apex from an alphabet
// that includes the bytes sorting below the dot.
func chainName(r *rand.Rand, apex dns.Name) dns.Name {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	labels := make([]string, 1+r.Intn(3))
	for i := range labels {
		b := make([]byte, 1+r.Intn(5))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		labels[i] = string(b)
	}
	n, err := dns.Concat(strings.Join(labels, "."), apex)
	if err != nil {
		panic(err)
	}
	return n
}

// TestSpanStoreMatchesOracle drives a span store through arbitrary sequences
// of everything that can happen to one — harvested spans (fresh, duplicate
// and already expired), tail merges, purges, the wholesale reset at the
// limit, clones, and a trip through ExportInfraState and RestoreInfra — over
// the NSEC chain of a zone, and after every step requires covers to answer
// exactly as a linear scan of the retained spans with the CanonicalCompare
// definition of coverage does. The chain's last span wraps to the apex; with
// the root as apex, the first span's owner is the root, whose key is empty.
func TestSpanStoreMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		apex  dns.Name
		limit int
	}{
		{dns.MustName("dlv.test"), 0},
		{dns.MustName("dlv.test"), 48},
		{dns.Root, 0},
		{dns.Root, 90},
	} {
		t.Run(fmt.Sprintf("apex=%s/limit=%d", tc.apex, tc.limit), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(29 + tc.limit)))
			seen := map[dns.Name]bool{tc.apex: true}
			chain := []dns.Name{tc.apex}
			for len(chain) < 160 {
				if n := chainName(r, tc.apex); !seen[n] {
					seen[n] = true
					chain = append(chain, n)
				}
			}
			sort.Slice(chain, func(i, j int) bool { return dns.CanonicalCompare(chain[i], chain[j]) < 0 })
			probes := append([]dns.Name{}, chain...)
			for len(probes) < 3*len(chain) {
				probes = append(probes, chainName(r, tc.apex))
			}

			s := &spanStore{limit: tc.limit}
			var model []span // every span the store still answers for
			now := uint32(1000)
			dropExpired := func() {
				live := model[:0]
				for _, sp := range model {
					if sp.expires >= now {
						live = append(live, sp)
					}
				}
				model = live
			}
			check := func(step int, op string) {
				t.Helper()
				for _, probe := range probes {
					want := false
					for _, sp := range model {
						if sp.expires >= now && covered(probe, sp.owner, sp.next) {
							want = true
							break
						}
					}
					if got := s.covers(probe, now); got != want {
						t.Fatalf("step %d (%s), now=%d: covers(%s) = %t, oracle says %t", step, op, now, probe, got, want)
					}
				}
			}

			for step := 0; step < 1500; step++ {
				var op string
				switch p := r.Intn(100); {
				case p < 72:
					op = "add"
					i := r.Intn(len(chain))
					sp := span{owner: chain[i], next: chain[(i+1)%len(chain)], expires: now + uint32(r.Intn(60))}
					if r.Intn(10) == 0 {
						sp.expires = now - 1 - uint32(r.Intn(5)) // arrives already expired
					}
					// The limit logic of add, replayed on the model: at the
					// cap expired spans go; if that frees nothing, everything.
					if s.limit > 0 && s.size() >= s.limit {
						live := 0
						for _, held := range append(append([]span{}, s.sorted...), s.tail...) {
							if held.expires >= now {
								live++
							}
						}
						if dropExpired(); live >= s.limit {
							model = model[:0]
						}
					}
					s.add(sp, now)
					model = append(model, sp)
				case p < 78:
					op = "merge"
					s.merge()
				case p < 84:
					op = "purge"
					s.purge(now)
					dropExpired()
				case p < 89:
					op = "clone"
					s = s.clone()
				case p < 94:
					op = "export+restore"
					ic := NewInfraCache()
					ic.putSpans(tc.apex, s.clone())
					ic.Seal()
					st, err := ic.Export()
					if err != nil {
						t.Fatal(err)
					}
					restored, err := RestoreInfra(st)
					if err != nil {
						t.Fatalf("step %d: RestoreInfra refused an exported store: %v", step, err)
					}
					s = restored.shard(tc.apex).spans[tc.apex].clone()
					if s.limit != tc.limit {
						t.Fatalf("limit %d came back as %d", tc.limit, s.limit)
					}
				default:
					op = "clock"
					now += uint32(r.Intn(25))
				}
				check(step, op)
			}
			if len(s.sorted) == 0 {
				t.Fatal("the run never exercised the sorted body")
			}
		})
	}
}

// TestRestoreInfraRefusesUnsortedSpans pins the check the sealed store's
// binary search depends on: a span set whose owners are not in strictly
// increasing canonical order is refused, including an order that only plain
// string comparison would call sorted.
func TestRestoreInfraRefusesUnsortedSpans(t *testing.T) {
	zone := dns.MustName("dlv.test")
	set := func(owners ...string) *InfraState {
		s := InfraSpanSet{Zone: zone}
		for _, o := range owners {
			s.Spans = append(s.Spans, InfraSpan{Owner: dns.MustName(o), Next: zone, Expires: 100})
		}
		return &InfraState{Spans: []InfraSpanSet{s}}
	}
	for _, bad := range [][]string{
		{"b.dlv.test", "a.dlv.test"},
		{"a.dlv.test", "a.dlv.test"},
		{"a-b.dlv.test", "b.a.dlv.test"}, // canonical order puts b.a first
		{"dlv.test", "z.dlv.test", "y.dlv.test"},
	} {
		if _, err := RestoreInfra(set(bad...)); err == nil {
			t.Errorf("RestoreInfra accepted out-of-order owners %v", bad)
		}
	}
	ic, err := RestoreInfra(set("dlv.test", "b.a.dlv.test", "a-b.dlv.test", "ab.dlv.test"))
	if err != nil {
		t.Fatalf("RestoreInfra refused a canonically ordered set: %v", err)
	}
	var buf [256]byte
	if !ic.spanCovers(zone, dns.AppendSortKey(buf[:0], dns.MustName("zz.dlv.test")), 50) {
		t.Error("restored wrap-around span does not cover")
	}
}

// TestSpanCoversDoesNotAllocate pins the look-aside check's cost model: the
// probe key is built in a stack buffer and both the tail scan and the body
// search compare stored keys against it in place.
func TestSpanCoversDoesNotAllocate(t *testing.T) {
	s := &spanStore{}
	for i := 0; i < 3*tailLimit+tailLimit/2; i++ {
		s.add(span4(fmt.Sprintf("n%04d.dlv.test", i), fmt.Sprintf("n%04d.dlv.test", i+1), 100), 0)
	}
	if len(s.sorted) == 0 || len(s.tail) == 0 {
		t.Fatalf("want spans in both halves, have sorted=%d tail=%d", len(s.sorted), len(s.tail))
	}
	hit, miss := dns.MustName("n0007x.dlv.test"), dns.MustName("zzz.dlv.test")
	if !s.covers(hit, 50) || s.covers(miss, 50) {
		t.Fatal("fixture does not cover what it should")
	}
	if got := testing.AllocsPerRun(200, func() {
		s.covers(hit, 50)
		s.covers(miss, 50)
	}); got != 0 {
		t.Errorf("covers allocates %.1f times per pair of calls, want 0", got)
	}
}
