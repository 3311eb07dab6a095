package resolver

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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

// spanSteps drives a span store through the steps ops spells out — spans
// harvested (fresh, again, or already expired) and rechained (the same owner
// with a nearer next, as a deposit inside the span splits it), tail merges,
// purges, the wholesale reset at the limit, clones, and a trip through
// Export and RestoreInfra — over an NSEC chain of chainLen names under apex
// drawn from seed. After every step covers must answer, for every probe,
// exactly as a linear scan of a model of the retained spans does with the
// CanonicalCompare definition of coverage, and the store must hold as many
// spans, as many of them queued, as the model. The model holds each distinct
// span once: a re-harvest raises its expiry and never meets the cap, and a
// merge keeps the freshest span of each owner (a tie is the store's to
// break). The chain's last span wraps to the apex; with the root as apex,
// the first span's owner is the root, whose key is empty. It returns the
// store as the last step left it.
func spanSteps(t *testing.T, apex dns.Name, limit, chainLen int, seed int64, ops []byte) *spanStore {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	seen := map[dns.Name]bool{apex: true}
	chain := []dns.Name{apex}
	for len(chain) < chainLen {
		if n := chainName(r, apex); !seen[n] {
			seen[n] = true
			chain = append(chain, n)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return dns.CanonicalCompare(chain[i], chain[j]) < 0 })
	probes := append([]dns.Name{}, chain...)
	for len(probes) < 3*len(chain) {
		probes = append(probes, chainName(r, apex))
	}
	// splits[i] are the probes inside chain span i, the nexts a deposit
	// there would give chain[i].
	splits := make([][]dns.Name, len(chain))
	for i, owner := range chain {
		for _, p := range probes {
			if covered(p, owner, chain[(i+1)%len(chain)]) {
				splits[i] = append(splits[i], p)
			}
		}
	}

	s := &spanStore{limit: limit}
	type held struct {
		span
		queued bool
	}
	var model []held // every span the store still holds
	now := uint32(1000)
	queued := func() int {
		n := 0
		for _, m := range model {
			if m.queued {
				n++
			}
		}
		return n
	}
	dropExpired := func() {
		model = slices.DeleteFunc(model, func(m held) bool { return m.expires < now })
	}
	// merged is the model's side of a store merge.
	merged := func() {
		kept := func(owner dns.Name) dns.Name {
			for _, sp := range s.sorted {
				if sp.owner == owner {
					return sp.next
				}
			}
			return ""
		}
		top := map[dns.Name]span{}
		for _, m := range model {
			if b, ok := top[m.owner]; !ok || m.expires > b.expires ||
				m.expires == b.expires && m.next != b.next && m.next == kept(m.owner) {
				top[m.owner] = m.span
			}
		}
		model = model[:0]
		for _, sp := range top {
			model = append(model, held{span: sp})
		}
	}
	// check asks covers, the store's answer by default, about every probe.
	check := func(step int, op string, covers func(dns.Name) bool) {
		t.Helper()
		if covers == nil {
			covers = func(probe dns.Name) bool { return s.covers(probe, now) }
		}
		for _, probe := range probes {
			want := false
			for _, m := range model {
				if m.expires >= now && covered(probe, m.owner, m.next) {
					want = true
					break
				}
			}
			if got := covers(probe); got != want {
				t.Fatalf("step %d (%s), now=%d: covers(%s) = %t, oracle says %t", step, op, now, probe, got, want)
			}
		}
	}
	// add stores sp in both, replaying on the model the refresh of a held
	// span, the limit (expired spans go first; if that frees nothing,
	// everything) and the merge of a full tail.
	add := func(sp span) {
		s.add(sp, now)
		for i := range model {
			if model[i].owner == sp.owner && model[i].next == sp.next {
				model[i].expires = max(model[i].expires, sp.expires)
				return
			}
		}
		if limit > 0 && len(model) >= limit {
			if dropExpired(); len(model) >= limit {
				model = model[:0]
			}
		}
		model = append(model, held{span: sp, queued: true})
		if queued() >= tailLimit {
			merged()
		}
	}
	next := func(n int) int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b) % n
	}
	expiry := func() uint32 {
		if e := next(64); e < 60 {
			return now + uint32(e)
		}
		return now - 1 - uint32(next(5)) // arrives already expired
	}

	for step := 0; len(ops) > 0; step++ {
		var op string
		switch p := next(100); {
		case p < 60:
			op = "add"
			i := next(len(chain))
			add(span{owner: chain[i], next: chain[(i+1)%len(chain)], expires: expiry()})
		case p < 72:
			op = "rechain"
			i := next(len(chain))
			if len(splits[i]) == 0 {
				continue
			}
			add(span{owner: chain[i], next: splits[i][next(len(splits[i]))], expires: expiry()})
		case p < 78:
			op = "merge"
			s.merge()
			merged()
		case p < 84:
			op = "purge"
			s.purge(now)
			dropExpired()
		case p < 89:
			op = "clone"
			s = s.clone()
			merged()
		case p < 94:
			op = "export+restore"
			s = s.clone()
			merged()
			ic := NewCache(CacheLimits{}, 0)
			ic.spans[apex] = s.clone()
			ic.Seal()
			st, err := ic.Export()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreInfra(st)
			if err != nil {
				t.Fatalf("step %d: RestoreInfra refused an exported store: %v", step, err)
			}
			check(step, "restored cache", func(probe dns.Name) bool {
				var buf [256]byte
				return restored.spanCovers(apex, dns.AppendSortKey(buf[:0], probe), now)
			})
			s = restored.spans[apex].clone()
			if s.limit != limit {
				t.Fatalf("limit %d came back as %d", limit, s.limit)
			}
		default:
			op = "clock"
			now += uint32(next(25))
		}
		check(step, op, nil)
		if s.size() != len(model) || len(s.tail) != queued() {
			t.Fatalf("step %d (%s): store holds %d spans, %d queued; the model %d, %d queued",
				step, op, s.size(), len(s.tail), len(model), queued())
		}
	}
	return s
}

// TestSpanStoreMatchesOracle runs spanSteps over long random step sequences,
// with and without a limit, under a zone apex and under the root.
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
			seed := int64(29 + tc.limit)
			ops := make([]byte, 4500)
			rand.New(rand.NewSource(seed)).Read(ops)
			if s := spanSteps(t, tc.apex, tc.limit, 160, seed, ops); len(s.sorted) == 0 {
				t.Fatal("the run never exercised the sorted body")
			}
		})
	}
}

// FuzzSpanStore runs spanSteps over the fuzzer's step sequences, on a
// shorter chain so that each input stays cheap.
func FuzzSpanStore(f *testing.F) {
	f.Add(false, uint8(0), int64(1), []byte{0, 3, 10, 70, 3, 20, 0, 3, 70, 75, 0, 99, 24})
	f.Add(true, uint8(4), int64(2), []byte{0, 1, 5, 0, 2, 5, 0, 3, 5, 0, 4, 5, 0, 1, 50, 0, 5, 5, 99, 24})
	f.Add(false, uint8(9), int64(3), []byte{70, 1, 0, 70, 1, 1, 0, 1, 40, 80, 85, 90, 99, 24, 75})
	f.Fuzz(func(t *testing.T, root bool, limit uint8, seed int64, ops []byte) {
		apex := dns.MustName("dlv.test")
		if root {
			apex = dns.Root
		}
		spanSteps(t, apex, int(limit%96), 40, seed, ops[:min(len(ops), 3000)])
	})
}

// TestRestoreInfraRefusesUnsortedSpans pins that RestoreInfra accepts only
// what Export writes: the names of every list — delegations, outcomes,
// span-set zones, and the span owners of a set, which the sealed store's
// binary search depends on — in strictly increasing canonical order. A
// repeat is refused, and so is an order that only plain string comparison
// would call sorted.
func TestRestoreInfraRefusesUnsortedSpans(t *testing.T) {
	zone := dns.MustName("dlv.test")
	spans := func(owners ...string) *InfraState {
		s := InfraSpanSet{Zone: zone}
		for _, o := range owners {
			s.Spans = append(s.Spans, InfraSpan{Owner: dns.MustName(o), Next: zone, Expires: 100})
		}
		return &InfraState{Spans: []InfraSpanSet{s}}
	}
	delegations := func(names ...string) *InfraState {
		st := &InfraState{}
		for _, n := range names {
			st.Delegations = append(st.Delegations, InfraDelegation{Name: dns.MustName(n), Parent: dns.Root})
		}
		return st
	}
	outcomes := func(names ...string) *InfraState {
		st := &InfraState{}
		for _, n := range names {
			st.Outcomes = append(st.Outcomes, InfraOutcome{Name: dns.MustName(n), Status: StatusSecure})
		}
		return st
	}
	spanSets := func(zones ...string) *InfraState {
		st := &InfraState{}
		for _, z := range zones {
			st.Spans = append(st.Spans, InfraSpanSet{Zone: dns.MustName(z)})
		}
		return st
	}
	bad := [][]string{
		{"b.dlv.test", "a.dlv.test"},
		{"a.dlv.test", "a.dlv.test"},
		{"a-b.dlv.test", "b.a.dlv.test"}, // canonical order puts b.a first
		{"dlv.test", "z.dlv.test", "y.dlv.test"},
	}
	good := []string{"dlv.test", "b.a.dlv.test", "a-b.dlv.test", "ab.dlv.test"}
	for _, list := range []struct {
		name  string
		state func(...string) *InfraState
	}{
		{"span owners", spans},
		{"delegations", delegations},
		{"outcomes", outcomes},
		{"span-set zones", spanSets},
	} {
		for _, names := range bad {
			if _, err := RestoreInfra(list.state(names...)); err == nil {
				t.Errorf("RestoreInfra accepted %s %v", list.name, names)
			}
		}
		if _, err := RestoreInfra(list.state(good...)); err != nil {
			t.Errorf("RestoreInfra refused canonically ordered %s: %v", list.name, err)
		}
	}
	ic, err := RestoreInfra(spans(good...))
	if err != nil {
		t.Fatal(err)
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

// TestSpanStoreCapRefresh pins that the limit counts distinct spans: at the
// cap, re-harvesting a span the store holds refreshes it and keeps every
// other span. Only a new span meets the cap, and with every span live that
// resets the store.
func TestSpanStoreCapRefresh(t *testing.T) {
	s := &spanStore{limit: 4}
	for _, owner := range []string{"a", "b", "c", "d"} {
		s.add(span4(owner+".dlv.test", owner+"z.dlv.test", 100), 0)
	}
	s.add(span4("a.dlv.test", "az.dlv.test", 200), 50)
	if s.size() != 4 {
		t.Fatalf("re-harvest at the cap left %d spans, want 4", s.size())
	}
	for _, name := range []string{"aa.dlv.test", "bb.dlv.test", "cc.dlv.test", "dd.dlv.test"} {
		if !s.covers(dns.MustName(name), 60) {
			t.Errorf("%s not covered after a re-harvest at the cap", name)
		}
	}
	if !s.covers(dns.MustName("aa.dlv.test"), 150) || s.covers(dns.MustName("bb.dlv.test"), 150) {
		t.Error("the re-harvest did not refresh only its own span")
	}
	s.add(span4("e.dlv.test", "ez.dlv.test", 100), 60)
	if s.size() != 1 || s.covers(dns.MustName("bb.dlv.test"), 60) || !s.covers(dns.MustName("ee.dlv.test"), 60) {
		t.Errorf("a new span at a live cap left %d spans, want the reset to 1", s.size())
	}
}

// TestSpanRefreshAllocs pins the cost of re-harvesting a span the store
// holds, in the sorted body or in the tail: no allocation, no tail entry.
func TestSpanRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes escape analysis")
	}
	s := &spanStore{}
	for i := 0; i < tailLimit+tailLimit/2; i++ {
		s.add(span4(fmt.Sprintf("n%04d.dlv.test", i), fmt.Sprintf("n%04d.dlv.test", i+1), 100), 0)
	}
	body, tail := s.sorted[7], s.tail[3]
	body.expires, tail.expires = 150, 150
	size, queued := s.size(), len(s.tail)
	if got := testing.AllocsPerRun(200, func() {
		s.add(body, 0)
		s.add(tail, 0)
	}); got != 0 {
		t.Errorf("re-harvesting a held span allocates %.1f times per pair, want 0", got)
	}
	if s.size() != size || len(s.tail) != queued {
		t.Errorf("re-harvests moved the store from %d spans, %d queued, to %d, %d", size, queued, s.size(), len(s.tail))
	}
	if s.sorted[7].expires != 150 || s.tail[3].expires != 150 {
		t.Error("a re-harvest did not raise the held span's expiry")
	}
}

// TestSpanStoreConcurrent re-harvests held spans, adds new ones and reads
// coverage on one store from several goroutines at once; under -race it
// checks that a refresh in place is ordered against the reads. Afterwards
// the store holds each span once, live until the latest expiry any
// goroutine gave it.
func TestSpanStoreConcurrent(t *testing.T) {
	const goroutines = 4
	spans := make([]span, 3*tailLimit)
	probes := make([]dns.Name, len(spans))
	for i := range spans {
		spans[i] = span4(fmt.Sprintf("n%04d.dlv.test", i), fmt.Sprintf("n%04d.dlv.test", i+1), 100)
		probes[i] = dns.MustName(fmt.Sprintf("n%04dx.dlv.test", i))
	}
	s := &spanStore{}
	for _, sp := range spans[:2*tailLimit+tailLimit/2] {
		s.add(sp, 0)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range spans {
				k := (i + 17*g) % len(spans)
				sp := spans[k]
				sp.expires += uint32(g)
				s.add(sp, 0)
				if !s.covers(probes[k], 50) {
					t.Errorf("goroutine %d: %s not covered after its add", g, probes[k])
				}
			}
		}(g)
	}
	wg.Wait()
	if s.size() != len(spans) {
		t.Errorf("store holds %d spans, want %d distinct", s.size(), len(spans))
	}
	for _, probe := range probes {
		if !s.covers(probe, 100+goroutines-1) {
			t.Errorf("%s lost the latest expiry", probe)
		}
	}
}
