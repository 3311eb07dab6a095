package zone

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// covered is NSEC coverage written directly on CanonicalCompare: name falls
// strictly between lower and next, the interval wrapping at the apex when
// next is not after lower.
func covered(name, lower, next dns.Name) bool {
	if dns.CanonicalLess(lower, next) {
		return dns.CanonicalLess(lower, name) && dns.CanonicalLess(name, next)
	}
	return dns.CanonicalLess(lower, name) || dns.CanonicalLess(name, next)
}

// buildMixedZone returns a signed zone whose owners come from both
// universes, and the oracle's view of it: every owner name, and the set of
// delegation points. Static side: the apex, a delegation with glue below it,
// leaves whose labels differ only in bytes that sort below the dot, and an
// address record below a synthesized cut. Synthesized side: a few hundred
// cuts, secure cuts and leaves directly under the apex, plus glue two labels
// down (which makes nic.<apex> an empty non-terminal).
func buildMixedZone(t *testing.T, r *rand.Rand) (z *Zone, owners []dns.Name, cuts map[dns.Name]bool) {
	t.Helper()
	apex := dns.MustName("mix.test")
	z, err := New(Config{Apex: apex, Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = z.Sign(SignConfig{
		KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 21),
		ZSK:       mustKey(t, dns.DNSKEYFlagZone, 22),
		Inception: 0, Expiration: 1 << 31,
		Rand: rand.New(rand.NewSource(23)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cuts = map[dns.Name]bool{}
	seen := map[dns.Name]bool{apex: true}
	owners = []dns.Name{apex}
	own := func(n dns.Name) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		owners = append(owners, n)
		return true
	}

	staticCut := dns.MustName("sub.mix.test")
	glue := aRR("ns1.sub.mix.test", "192.0.2.1")
	if err := z.Delegate(staticCut, []dns.Name{glue.Name}, []dns.RR{glue}); err != nil {
		t.Fatal(err)
	}
	cuts[staticCut] = true
	own(staticCut)
	own(glue.Name)
	for _, label := range []string{"a", "a-b", "a_b", "ab", "b.a", "-", "_", "zz--"} {
		rr := aRR(label+".mix.test", "192.0.2.2")
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
		own(rr.Name)
	}

	src := &mapSynth{records: map[dns.Name][]dns.RR{}}
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	for len(src.entries) < 300 {
		b := make([]byte, 1+r.Intn(8))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		name := dns.MustName(string(b) + ".mix.test")
		if !own(name) {
			continue
		}
		e := SynthEntry{Name: name}
		switch r.Intn(3) {
		case 0:
			e.Kind = SynthCut
		case 1:
			e.Kind = SynthSecureCut
		default:
			e.Kind, e.Aux = SynthLeaf, uint32(dns.TypeTXT)
		}
		if e.Kind.isCut() {
			cuts[name] = true
		}
		src.entries = append(src.entries, e)
	}
	for p := 0; p < 4; p++ {
		name := dns.MustName(fmt.Sprintf("pool%d.nic.mix.test", p))
		own(name)
		src.entries = append(src.entries, SynthEntry{Name: name, Kind: SynthGlue, Aux: uint32(p)})
	}
	// A static address below a synthesized cut: out of the chain, like glue.
	for _, e := range src.entries {
		if e.Kind == SynthCut {
			rr := aRR("ns."+string(e.Name), "192.0.2.3")
			if err := z.Add(rr); err != nil {
				t.Fatal(err)
			}
			own(rr.Name)
			break
		}
	}
	r.Shuffle(len(src.entries), func(i, j int) {
		src.entries[i], src.entries[j] = src.entries[j], src.entries[i]
	})
	z.AttachSynth(src)
	return z, owners, cuts
}

// TestOwnerIndexMatchesOracle pins the keyed owner index to canonical order
// as CanonicalCompare defines it: on a zone mixing static and synthesized
// owners, the NSEC chain, every owner's successor, every probe's resolved
// index position and predecessor, and the NSEC a signed NXDOMAIN carries all
// equal what a CanonicalCompare-sorted list of the visible owners says.
func TestOwnerIndexMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	z, owners, cuts := buildMixedZone(t, r)
	apex := z.Apex()

	belowCut := func(n dns.Name) bool {
		for p := n.Parent(); p != apex && !p.IsRoot(); p = p.Parent() {
			if cuts[p] {
				return true
			}
		}
		return false
	}
	var chain []dns.Name
	for _, n := range owners {
		if !belowCut(n) {
			chain = append(chain, n)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return dns.CanonicalCompare(chain[i], chain[j]) < 0 })
	if len(chain) == len(owners) {
		t.Fatal("fixture has no owner below a cut")
	}
	if got := z.NSECChainNames(); !reflect.DeepEqual(got, chain) {
		t.Fatalf("NSECChainNames differs from the oracle:\ngot:  %v\nwant: %v", got, chain)
	}

	exists := map[dns.Name]bool{}
	for _, n := range owners {
		exists[n] = true
	}
	probes := append([]dns.Name{}, owners...)
	for i := 0; i < 400; i++ {
		var probe dns.Name
		switch i % 4 {
		case 0: // between top-level owners
			probe = dns.MustName(randLabel(r)[:1+r.Intn(3)] + ".mix.test")
		case 1: // a neighbour of an owner: one byte appended, below the dot and above
			probe = dns.MustName(owners[r.Intn(len(owners))].FirstLabel() + string("-_0z"[r.Intn(4)]) + ".mix.test")
		case 2: // below an owner (a cut, a leaf, glue)
			probe = dns.MustName(randLabel(r) + "." + string(owners[r.Intn(len(owners))]))
		default: // below the empty non-terminal
			probe = dns.MustName(randLabel(r) + ".nic.mix.test")
		}
		probes = append(probes, probe)
	}

	z.mu.Lock()
	// The index stores keys, not names: read it back through the decoder.
	z.synthEnsureLocked()
	synth := map[dns.Name]bool{}
	indexed := make([]dns.Name, len(z.synth.kind))
	for i := range indexed {
		indexed[i] = z.synth.name(i)
		synth[indexed[i]] = true
	}
	entries := z.synth.src.(*mapSynth).entries
	if len(synth) != len(entries) {
		t.Errorf("index decodes to %d distinct names, source has %d", len(synth), len(entries))
	}
	for _, e := range entries {
		if !synth[e.Name] {
			t.Errorf("source entry %s is not in the decoded index", e.Name)
		}
	}
	for i, n := range chain {
		if got, want := z.successorLocked(z.ownerLocked(n)), chain[(i+1)%len(chain)]; got != want {
			t.Errorf("successor(%s) = %s, want %s", n, got, want)
		}
	}
	wantPred := map[dns.Name]dns.Name{}
	for _, probe := range probes {
		o := z.ownerLocked(probe)
		before := 0
		for _, n := range indexed {
			if dns.CanonicalCompare(n, probe) < 0 {
				before++
			}
		}
		if o.name != probe || o.at != before || o.synth != synth[probe] {
			t.Errorf("ownerLocked(%s) = %+v, want at=%d synth=%t", probe, o, before, synth[probe])
		}
		if exists[probe] {
			continue
		}
		pred := apex
		for _, n := range chain {
			if dns.CanonicalCompare(n, probe) < 0 {
				pred = n
			}
		}
		wantPred[probe] = pred
		if got := z.predecessorLocked(o); got.name != pred {
			t.Errorf("predecessor(%s) = %s, want %s", probe, got.name, pred)
		} else if want := z.ownerLocked(pred); got != want {
			t.Errorf("predecessor(%s) resolved as %+v, want %+v", probe, got, want)
		}
	}
	z.mu.Unlock()

	// The same arithmetic through the public path: a name that is neither
	// below a cut nor an empty non-terminal is denied by the NSEC of its
	// oracle predecessor.
	denied := 0
	for probe, pred := range wantPred {
		if belowCut(probe) || probe == dns.MustName("nic.mix.test") {
			continue
		}
		res, err := z.Lookup(probe, dns.TypeA, true)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", probe, err)
		}
		if res.Kind != KindNXDomain {
			t.Fatalf("Lookup(%s) = %s, want nxdomain", probe, res.Kind)
		}
		for _, rr := range res.Authority {
			nsec, ok := rr.Data.(*dns.NSECData)
			if !ok {
				continue
			}
			denied++
			if rr.Name != pred || !covered(probe, rr.Name, nsec.NextName) {
				t.Errorf("NXDOMAIN for %s carries NSEC [%s, %s), want owner %s", probe, rr.Name, nsec.NextName, pred)
			}
		}
	}
	if denied == 0 {
		t.Fatal("no probe reached the NXDOMAIN path")
	}
}

// TestOwnerProbeDoesNotAllocate pins the index search to its stack buffer:
// resolving a name against the synthesized index builds the probe key and
// binary-searches the arena without touching the heap.
func TestOwnerProbeDoesNotAllocate(t *testing.T) {
	z, owners, _ := buildMixedZone(t, rand.New(rand.NewSource(19)))
	z.mu.Lock()
	defer z.mu.Unlock()
	z.synthEnsureLocked()
	probes := append(owners, dns.MustName("nope.mix.test"), dns.MustName("deep.er.nope.mix.test"))
	i := 0
	if got := testing.AllocsPerRun(200, func() {
		z.ownerLocked(probes[i%len(probes)])
		i++
	}); got != 0 {
		t.Errorf("ownerLocked allocates %.1f times per call, want 0", got)
	}
}
