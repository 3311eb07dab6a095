package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// newPopRand builds the deterministic annotation source for loaded lists.
func newPopRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// LoadRanked reads a ranked domain list in the formats the paper's sources
// use: one domain per line, or "rank,domain" CSV (Alexa/Tranco exports).
// Lines starting with '#' and blank lines are skipped. Deployment
// annotations (Signed/DSInParent/InDLV) are then drawn deterministically
// from the given rates and seed, since real lists carry no DNSSEC state.
//
// Domains with more than two labels are reduced to their SLD (the paper
// likewise uses SLDs only, §7.1); duplicates after reduction keep the best
// rank.
func LoadRanked(r io.Reader, rates Rates, seed int64) (*Population, error) {
	if rates == (Rates{}) {
		rates = DefaultRates()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	// First the list's SLDs in file order, duplicates included; their count
	// bounds the position table, which then de-duplicates them.
	var names []dns.Name
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// "rank,domain" or bare domain.
		field := line
		if i := strings.LastIndexByte(line, ','); i >= 0 {
			field = line[i+1:]
		}
		name, err := dns.MakeName(strings.TrimSpace(field))
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		// Reduce to the SLD.
		for name.LabelCount() > 2 {
			name = name.Parent()
		}
		if name.LabelCount() != 2 {
			continue // bare TLDs and the root carry no resolvable site
		}
		names = append(names, name)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading list: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("dataset: no usable domains in list")
	}

	pop := &Population{index: newPosTable(len(names))}
	tldSigned := make(map[string]bool)
	rng := newPopRand(seed)
	for _, name := range names {
		if _, dup := pop.Lookup(name); dup {
			continue
		}
		pop.index.add(hashName(name), uint32(len(pop.Domains)))
		labels := name.Labels()
		tld := labels[1]
		if _, seen := tldSigned[tld]; !seen {
			signed := rng.Float64() < rates.TLDSigned
			tldSigned[tld] = signed
			pop.TLDs = append(pop.TLDs, TLD{Label: tld, Signed: signed})
		}
		d := Domain{Name: name, Rank: int32(len(pop.Domains) + 1)}
		if rng.Float64() < rates.SLDSigned {
			d.Signed = true
			if tldSigned[tld] && rng.Float64() < rates.DSGivenSigned {
				d.DSInParent = true
			}
		}
		switch {
		case d.IsIsland():
			d.InDLV = rng.Float64() < rates.DepositGivenIsland
		case d.Signed:
			d.InDLV = rng.Float64() < rates.DepositGivenChained
		}
		pop.Domains = append(pop.Domains, d)
	}
	return pop, nil
}
