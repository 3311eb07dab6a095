package experiment

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/adversary"
	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/par"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// AdversaryScenario is one remedy configuration evaluated from the registry
// operator's vantage point.
type AdversaryScenario struct {
	Name string
	// Profile is the inference over epoch-1 observations; Link matches
	// epoch-2 observations back to epoch-1 clients.
	Profile adversary.Report
	Link    adversary.LinkReport
}

// AdversaryResult carries experiment E16: the registry-vantage inference
// engine run against the same multi-client workload under plain DLV, the
// hashed-DLV remedy, q-name minimization, and DLV-aware DNS (TXT).
type AdversaryResult struct {
	// Domains is the universe size; Clients the stub population; PerEpoch
	// the per-client query count of each of the two observation windows.
	Domains, Clients, PerEpoch int
	Scenarios                  []AdversaryScenario
	// Inversions are dictionary attacks against the hashed scenario's
	// epoch-1 labels at growing dictionary coverage of the universe.
	Inversions []adversary.InversionReport
	Coverages  []float64
	// TopBandRank bounds the "popular" band of the inversion split.
	TopBandRank int
}

// adversaryFavorites is the size of each client's stable preference set;
// adversaryLoyalty the probability a query goes to it rather than to the
// popularity-weighted background. Stable preferences are what make clients
// linkable across windows — the realistic browsing property the engine
// exploits.
const (
	adversaryFavorites = 12
	adversaryLoyalty   = 0.7
)

// adversaryClientAddr derives the stub endpoint of client i (distinct from
// the shared StubAddr and ResolverAddr).
func adversaryClientAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 9, byte(i / 250), byte(1 + i%250)})
}

// adversaryWorkload draws client c's query sequence for one epoch:
// population indices, Zipf-weighted, with a per-client stable favorite set
// shared by both epochs.
func adversaryWorkload(seed int64, popSize, c, epoch, q int) []int {
	favRng := rand.New(rand.NewSource(seed ^ int64(c+1)*0x9E3779B9))
	favZipf := rand.NewZipf(favRng, 1.2, 1, uint64(popSize-1))
	favs := make([]int, adversaryFavorites)
	for i := range favs {
		favs[i] = int(favZipf.Uint64())
	}
	rng := rand.New(rand.NewSource(seed ^ int64(c+1)*0x5DEECE66D ^ int64(epoch+1)*0xB5297A4D))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(popSize-1))
	out := make([]int, q)
	for i := range out {
		if rng.Float64() < adversaryLoyalty {
			out[i] = favs[rng.Intn(len(favs))]
		} else {
			out[i] = int(zipf.Uint64())
		}
	}
	return out
}

// adversaryObserve runs the two observation windows of one scenario. Every
// (client, epoch) cell audits on its own network shard — private resolver,
// clock, and capture — so cells fan out over Params.Workers without
// interfering; the per-epoch analyzers then merge in fixed client order,
// keeping the aggregate byte-identical at any worker count. A fresh shard
// per epoch models windows far enough apart that resolver caches expired.
func adversaryObserve(u *universe.Universe, pop *dataset.Population, p Params, clients, perEpoch int, remedy resolver.RemedyMode, qmin bool) ([2]*capture.Analyzer, error) {
	var epochs [2]*capture.Analyzer
	cells := make([]*capture.Analyzer, clients*2)
	err := par.Each(clients*2, p.workers(), func(i int) error {
		c, epoch := i/2, i%2
		cfg := u.ResolverConfig(true, true)
		if remedy != 0 && cfg.Lookaside != nil {
			cfg.Lookaside.Remedy = remedy
		}
		cfg.QNameMinimization = qmin
		auditor, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
		if err != nil {
			return err
		}
		addr := adversaryClientAddr(c)
		for _, di := range adversaryWorkload(p.Seed, len(pop.Domains), c, epoch, perEpoch) {
			if err := auditor.QueryDomainAs(addr, pop.Domains[di].Name); err != nil {
				return fmt.Errorf("client %d epoch %d: %w", c, epoch, err)
			}
		}
		cells[i] = auditor.Analyzer()
		return nil
	})
	if err != nil {
		return epochs, err
	}
	cfg := capture.Config{RegistryZone: u.RegistryZone, Deposits: u.Registry, Hashed: u.Registry.Hashed()}
	for epoch := 0; epoch < 2; epoch++ {
		combined := capture.NewAnalyzer(cfg)
		for c := 0; c < clients; c++ {
			combined.Merge(cells[c*2+epoch])
		}
		epochs[epoch] = combined
	}
	return epochs, nil
}

// Adversary runs experiment E16: reconstruct per-client profiles from the
// registry's vantage point and compare what the operator learns under each
// remedy, including the dictionary-inversion attack on hashed DLV.
func Adversary(p Params) (*AdversaryResult, error) {
	n := p.scaled(20_000, 400)
	clients := p.scaled(400, 16)
	perEpoch := p.scaled(200, 20)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	res := &AdversaryResult{
		Domains: n, Clients: clients, PerEpoch: perEpoch,
		Coverages:   []float64{0.10, 0.50, 1.0},
		TopBandRank: n / 10,
	}

	scenarios := []struct {
		name   string
		mutate func(*universe.Options)
		remedy resolver.RemedyMode
		qmin   bool
	}{
		{"plain-dlv", nil, 0, false},
		{"hashed-dlv", func(o *universe.Options) { o.RegistryHashed = true }, 0, false},
		{"qname-min", nil, 0, true},
		{"dlv-aware-txt", func(o *universe.Options) { o.TXTRemedy = true }, resolver.RemedyTXT, false},
	}
	for _, sc := range scenarios {
		u, err := buildUniverse(pop, p.Seed, sc.mutate)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", sc.name, err)
		}
		epochs, err := adversaryObserve(u, pop, p, clients, perEpoch, sc.remedy, sc.qmin)
		if err != nil {
			return nil, fmt.Errorf("adversary %s: %w", sc.name, err)
		}
		profA := adversary.FromCapture(epochs[0].ClientProfiles())
		profB := adversary.FromCapture(epochs[1].ClientProfiles())
		res.Scenarios = append(res.Scenarios, AdversaryScenario{
			Name:    sc.name,
			Profile: adversary.Analyze(profA, p.workers()),
			Link:    adversary.Linkability(profA, profB, p.workers()),
		})

		if sc.name != "hashed-dlv" {
			continue
		}
		// The attacker's ground: the universe's names are public, so the
		// hash of every rank is precomputable. truth carries the
		// evaluation's omniscient label → rank mapping for the band split.
		truth := make(map[string]int, len(pop.Domains))
		for i := range pop.Domains {
			truth[dlv.HashLabel(pop.Domains[i].Name)] = int(pop.Domains[i].Rank)
		}
		for _, cov := range res.Coverages {
			k := int(cov * float64(n))
			dict := make([]adversary.DictEntry, k)
			for i := 0; i < k; i++ {
				dict[i] = adversary.DictEntry{Domain: pop.Domains[i].Name, Rank: int(pop.Domains[i].Rank)}
			}
			res.Inversions = append(res.Inversions,
				adversary.InvertDictionary(profA, dict, truth, res.TopBandRank, p.workers()))
		}
	}
	return res, nil
}

// String renders the remedy comparison and the inversion attack.
func (r *AdversaryResult) String() string {
	var b strings.Builder
	t := metrics.Table{
		Title: fmt.Sprintf("E16 — registry-vantage adversary (%d domains, %d clients, 2×%d queries/client)",
			r.Domains, r.Clients, r.PerEpoch),
		Header: []string{"scenario", "clients seen", "profile size", "entropy (bits)",
			"uniqueness", "anon-set", "linkability", "case-2"},
	}
	for _, sc := range r.Scenarios {
		t.AddRow(sc.Name,
			sc.Profile.Clients,
			fmt.Sprintf("%.1f", sc.Profile.MeanItems),
			fmt.Sprintf("%.2f", sc.Profile.MeanEntropyBits),
			metrics.Percent(sc.Profile.Uniqueness),
			fmt.Sprintf("%.2f", sc.Profile.MeanAnonymitySet),
			metrics.Percent(sc.Link.Fraction),
			sc.Profile.Case2,
		)
	}
	b.WriteString(t.String())

	if len(r.Inversions) > 0 {
		inv := metrics.Table{
			Title: fmt.Sprintf("E16 — dictionary inversion of hashed DLV (top band = rank ≤ %d)", r.TopBandRank),
			Header: []string{"dict coverage", "dict size", "labels", "recovered", "rate",
				"top-band rate", "tail rate"},
		}
		for i, rep := range r.Inversions {
			inv.AddRow(metrics.Percent(r.Coverages[i]), rep.DictSize, rep.Observed, rep.Recovered,
				metrics.Percent(rep.Rate), metrics.Percent(rep.TopRate), metrics.Percent(rep.TailRate))
		}
		b.WriteString(inv.String())
	}
	return b.String()
}
