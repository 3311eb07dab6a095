package adversary

import (
	"sort"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/par"
)

// DictEntry is one entry of the attacker's inversion dictionary: a public
// domain name and its popularity rank (1-based).
type DictEntry struct {
	Domain dns.Name
	Rank   int
}

// InversionReport is the outcome of the dictionary attack against the
// hashed-DLV remedy: the attacker precomputes crypto_hash(domain) for every
// dictionary entry and matches the labels observed at the registry.
type InversionReport struct {
	// DictSize is the attacker's dictionary size (hashes precomputed).
	DictSize int
	// Observed is the number of distinct hash labels the registry saw;
	// Recovered the subset the dictionary inverts; Rate the fraction.
	Observed  int
	Recovered int
	Rate      float64
	// The band split measures how unevenly the remedy protects: labels
	// whose true domain ranks within TopBandRank (evaluation ground truth)
	// versus the rest. Popular domains are in every attacker's dictionary,
	// so their "protection" evaporates.
	TopBandRank                 int
	TopObserved, TopRecovered   int
	TailObserved, TailRecovered int
	TopRate, TailRate           float64
}

// InvertDictionary runs the attack. profiles supply the observed labels
// (their Items, which in hashed mode are hash labels); dict is the
// attacker's domain list; truth maps each label the evaluation generated to
// its true domain rank, providing the omniscient band split the attacker
// does not need but the evaluation does. Hash precomputation fans out over
// at most workers goroutines; the report is invariant in the setting.
func InvertDictionary(profiles []Profile, dict []DictEntry, truth map[string]int, topBandRank, workers int) InversionReport {
	rep := InversionReport{DictSize: len(dict), TopBandRank: topBandRank}

	// The attacker's rainbow table: hash label → dictionary entry.
	hashes := make([]string, len(dict))
	_ = par.Each(len(dict), workers, func(i int) error {
		hashes[i] = dlv.HashLabel(dict[i].Domain)
		return nil
	})
	table := make(map[string]int, len(dict))
	for i, h := range hashes {
		table[h] = i
	}

	// Distinct observed labels, sorted for deterministic accumulation.
	seen := make(map[string]bool)
	for i := range profiles {
		for label := range profiles[i].Items {
			seen[label] = true
		}
	}
	labels := make([]string, 0, len(seen))
	for l := range seen {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	for _, label := range labels {
		rep.Observed++
		_, recovered := table[label]
		if recovered {
			rep.Recovered++
		}
		rank, known := truth[label]
		top := known && rank <= topBandRank
		if top {
			rep.TopObserved++
			if recovered {
				rep.TopRecovered++
			}
		} else {
			rep.TailObserved++
			if recovered {
				rep.TailRecovered++
			}
		}
	}
	if rep.Observed > 0 {
		rep.Rate = float64(rep.Recovered) / float64(rep.Observed)
	}
	if rep.TopObserved > 0 {
		rep.TopRate = float64(rep.TopRecovered) / float64(rep.TopObserved)
	}
	if rep.TailObserved > 0 {
		rep.TailRate = float64(rep.TailRecovered) / float64(rep.TailObserved)
	}
	return rep
}
