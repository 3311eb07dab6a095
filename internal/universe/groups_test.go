package universe

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// scanSynthIndex is the TLD index as one scan of the whole population
// derives it: every domain eachDomain visits, kept when under the label,
// plus one glue entry per pool those children use. It is the oracle the
// grouped SynthIndex is held to.
func scanSynthIndex(s *tldSynth) []zone.SynthEntry {
	var entries []zone.SynthEntry
	pools := make(map[int]bool)
	_ = s.u.eachDomain(func(d *dataset.Domain) error {
		if d.TLD() != s.label {
			return nil
		}
		pools[s.u.pool(d.Name)] = true
		kind := zone.SynthCut
		if d.Signed && d.DSInParent && s.signed {
			kind = zone.SynthSecureCut
		}
		entries = append(entries, zone.SynthEntry{Name: d.Name, Kind: kind})
		return nil
	})
	for p := range pools {
		if name, err := poolNSName(p, s.label); err == nil {
			entries = append(entries, zone.SynthEntry{Name: name, Kind: zone.SynthGlue, Aux: uint32(p)})
		}
	}
	return entries
}

// TestGroupedSynthIndexMatchesScan holds every TLD's grouped index to the
// full-scan oracle — the same names, kinds and pool glue — on a population
// with an extra overriding one of its names, and on one whose extras sit
// under their own TLDs.
func TestGroupedSynthIndexMatchesScan(t *testing.T) {
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The override flips a population domain's deployment state, so an
	// index that kept the population entry would show the wrong kind.
	var override dataset.Domain
	for _, d := range pop.Domains {
		if !d.Signed && pop.TLDSignedMap()[d.TLD()] {
			override = d
			break
		}
	}
	if override.Name == "" {
		t.Fatal("no unsigned domain under a signed TLD to override")
	}
	override.Signed, override.DSInParent = true, true
	cases := map[string][]dataset.Domain{
		"override":       {override},
		"secure-domains": dataset.SecureDomains(),
	}
	byName := func(a, b zone.SynthEntry) int { return cmp.Compare(a.Name, b.Name) }
	for name, extra := range cases {
		t.Run(name, func(t *testing.T) {
			u, err := Build(Options{Seed: 7, Population: pop, Extra: extra})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for label, z := range u.tlds {
				s := &tldSynth{u: u, label: label, signed: z.IsSigned()}
				got, want := s.SynthIndex(), scanSynthIndex(s)
				slices.SortFunc(got, byName)
				slices.SortFunc(want, byName)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: grouped index (%d entries) differs from the scan (%d)", label, len(got), len(want))
				}
				total += len(want)
			}
			if total < u.DomainCount() {
				t.Fatalf("indexes hold %d entries for %d domains", total, u.DomainCount())
			}
		})
	}
}

// TestConcurrentFirstTouchMatchesSequential races 8 goroutines over the first
// touch of every TLD of one lazy universe — they meet on the one grouping
// pass and on each zone's index build — and requires every answer to equal
// what a twin universe gives when touched one TLD at a time.
func TestConcurrentFirstTouchMatchesSequential(t *testing.T) {
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 100_000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Universe {
		u, err := Build(Options{Seed: 4, Population: pop, Extra: dataset.SecureDomains()})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	raced, twin := build(), build()
	labels := raced.TLDLabels()
	// Per TLD: its first population child (a referral), a name past every
	// child (an NXDOMAIN with a denial from the end of the index), and a
	// pool name server (glue).
	queries := make(map[string][]dns.Name, len(labels))
	for _, label := range labels {
		qs := []dns.Name{dns.MustName("zzzzzzzzzzzz." + label), dns.MustName("pool0.nic." + label)}
		for _, i := range twin.tldChildren(label)[:1] {
			qs = append(qs, pop.Domains[i].Name)
		}
		queries[label] = qs
	}
	touch := func(u *Universe, label string) []*zone.Result {
		var out []*zone.Result
		for _, q := range queries[label] {
			res, err := u.tlds[label].Lookup(q, dns.TypeA, true)
			if err != nil {
				t.Errorf("%s: %v", q, err)
				return nil
			}
			out = append(out, res)
		}
		return out
	}
	want := make(map[string][]*zone.Result, len(labels))
	for _, label := range labels {
		want[label] = touch(twin, label)
	}

	const workers = 8
	got := make([]map[string][]*zone.Result, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make(map[string][]*zone.Result, len(labels))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Each worker starts at a different TLD, so first touches collide.
			for i := range labels {
				label := labels[(i+w*3)%len(labels)]
				got[w][label] = touch(raced, label)
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range got {
		for _, label := range labels {
			if !reflect.DeepEqual(got[w][label], want[label]) {
				t.Fatalf("worker %d, %s: answers differ from the sequential twin:\ngot  %+v\nwant %+v", w, label, got[w][label], want[label])
			}
		}
	}
}
