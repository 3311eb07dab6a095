package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// populationDigest hashes everything the generator decides about every
// domain — name, TLD, the three deployment flags, rank — and the TLD table.
func populationDigest(p *Population) string {
	h := sha256.New()
	for _, t := range p.TLDs {
		fmt.Fprintf(h, "%s %t %g\n", t.Label, t.Signed, t.Weight)
	}
	for _, d := range p.Domains {
		fmt.Fprintf(h, "%s %s %t %t %t %d\n", d.Name, d.TLD(), d.Signed, d.DSInParent, d.InDLV, d.Rank)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkIndexAgainstMap holds Lookup to a map built here from the Domain
// array: every name resolves to the same *Domain, and absent names —
// one-byte-off neighbours of present ones included — are not found.
func checkIndexAgainstMap(t *testing.T, pop *Population) {
	t.Helper()
	oracle := make(map[dns.Name]*Domain, len(pop.Domains))
	for i := range pop.Domains {
		d := &pop.Domains[i]
		if prev, dup := oracle[d.Name]; dup {
			t.Fatalf("%s appears at ranks %d and %d", d.Name, prev.Rank, d.Rank)
		}
		oracle[d.Name] = d
	}
	absent := []dns.Name{dns.Root, "", dns.MustName("com"), dns.MustName("no-such-name.invalid")}
	for name, want := range oracle {
		if got, ok := pop.Lookup(name); !ok || got != want {
			t.Fatalf("Lookup(%s) = %p, %t; want %p", name, got, ok, want)
		}
		s := string(name)
		absent = append(absent,
			dns.Name(s[1:]),                // first byte dropped
			dns.Name("x"+s),                // one byte more
			dns.Name(s[:len(s)-1]),         // trailing dot dropped
			dns.Name(string(s[0]^1)+s[1:]), // first byte changed
			dns.Name(s[:len(s)-2]+string(s[len(s)-2]^1)+"."), // last TLD byte changed
		)
	}
	for _, name := range absent {
		if _, present := oracle[name]; present {
			continue
		}
		if d, ok := pop.Lookup(name); ok {
			t.Fatalf("Lookup(%q) found %+v, want not found", name, d)
		}
	}
}

// TestPopulationIndexMatchesMapOracle pins the position table behind
// Population.Lookup to a Go map, for the generator and the list loader, and
// pins the generator's output to what it produced when de-duplication went
// through a map: the table changes how a duplicate is found, not which
// names, flags or ranks come out.
func TestPopulationIndexMatchesMapOracle(t *testing.T) {
	golden := map[int64]string{
		1: "8e7a6d964f0fce5c",
		2: "536a07911359658c",
		3: "5f9c955eab4dd15d",
	}
	var pop *Population
	for seed := int64(1); seed <= 3; seed++ {
		var err error
		pop, err = AlexaLike(PopulationConfig{Size: 50_000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := populationDigest(pop); got != golden[seed] {
			t.Errorf("seed %d: population digest %s, want %s", seed, got, golden[seed])
		}
		checkIndexAgainstMap(t, pop)
	}
	renamed := 0
	for i := range pop.Domains {
		if strings.ContainsAny(string(pop.Domains[i].Name), "0123456789") {
			renamed++
		}
	}
	if renamed == 0 {
		t.Error("no generated label collided at 50k: the de-duplication path went unexercised")
	}

	probe := pop.Domains[len(pop.Domains)/2].Name
	missing := dns.MustName("no-such-name.invalid")
	if got := testing.AllocsPerRun(200, func() {
		pop.Lookup(probe)
		pop.Lookup(missing)
	}); got != 0 {
		t.Errorf("Lookup allocates %.1f times per call pair, want 0", got)
	}

	// A list with exact duplicates, sub-domains that reduce to an SLD seen
	// before and after them, and the §5.2 secure domains on top.
	var list strings.Builder
	rank := 0
	line := func(name string) {
		rank++
		fmt.Fprintf(&list, "%d,%s\n", rank, name)
	}
	for i := 0; i < 2000; i++ {
		d := pop.Domains[i].Name
		if i%3 == 0 {
			line("www." + string(d))
		}
		line(string(d))
		if i%5 == 0 {
			line("a.b." + string(d))
			line(string(d))
		}
	}
	for _, d := range SecureDomains() {
		line(string(d.Name))
		line("www." + string(d.Name))
	}
	loaded, err := LoadRanked(strings.NewReader(list.String()), Rates{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2000 + SecureDomainsCount; len(loaded.Domains) != want {
		t.Fatalf("loaded %d domains, want %d", len(loaded.Domains), want)
	}
	for i := range loaded.Domains {
		if int(loaded.Domains[i].Rank) != i+1 {
			t.Fatalf("rank %d at position %d", loaded.Domains[i].Rank, i)
		}
	}
	checkIndexAgainstMap(t, loaded)

	if d, ok := new(Population).Lookup(probe); ok {
		t.Errorf("zero Population found %+v", d)
	}
}

// TestPopulationIsConstantObjects pins the population's shape as the
// collector sees it: the heap objects a population adds do not grow with its
// size (a map entry, a name string and a de-duplication entry per domain
// would be 100k and more here).
func TestPopulationIsConstantObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	liveObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := liveObjects()
	pop, err := AlexaLike(PopulationConfig{Size: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := liveObjects()
	if delta := int64(after) - int64(before); delta >= 64 {
		t.Errorf("AlexaLike(100k) left %d heap objects live, want under 64", delta)
	}
	runtime.KeepAlive(pop)
}

// TestGeneratorAllocationsDoNotGrow pins the generator's allocations as a
// count that does not grow with the population: names go straight into the
// arena, so 100k domains allocate no more objects than 10k, give or take the
// arena's growth steps.
func TestGeneratorAllocationsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	allocs := func(size int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := AlexaLike(PopulationConfig{Size: size, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("AlexaLike: %.0f allocs at 10k, %.0f at 100k", small, large)
	if large-small >= 8 {
		t.Errorf("AlexaLike allocates %.0f more objects at 100k than at 10k, want under 8", large-small)
	}
}
