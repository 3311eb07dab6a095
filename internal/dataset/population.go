// Package dataset synthesizes the workloads the paper measures with:
// an Alexa-like ranked domain population with paper-calibrated DNSSEC and
// DLV deployment rates, the 45 DNSSEC-secured test domains of §5.2, the
// DITL-like recursive trace of §6.2.3, and the DNS-OARC operator survey
// marginals of §5.2.
//
// Everything is deterministic in a seed, so experiments are reproducible
// bit-for-bit.
package dataset

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// Domain is one second-level domain of the population with its DNSSEC
// deployment state. It is 24 bytes: a million-name population holds one per
// name, so the top-level label is read off Name (TLD) rather than stored.
type Domain struct {
	// Name is the SLD, e.g. "example.com.".
	Name dns.Name
	// Rank is the popularity rank (1-based).
	Rank int32
	// Signed reports whether the zone is DNSSEC-signed (publishes DNSKEYs).
	Signed bool
	// DSInParent reports whether the signed zone registered a DS with its
	// parent; a signed zone without one is an island of security.
	DSInParent bool
	// InDLV reports whether the owner deposited the key in the DLV
	// registry.
	InDLV bool
}

// TLD returns the top-level label of the domain, e.g. "com": the last
// label of Name, sliced out of it.
func (d *Domain) TLD() string {
	s := strings.TrimSuffix(string(d.Name), ".")
	return s[strings.LastIndexByte(s, '.')+1:]
}

// IsIsland reports whether the domain is an island of security: signed but
// unverifiable from the root (the case DLV exists for).
func (d *Domain) IsIsland() bool { return d.Signed && !d.DSInParent }

// TLD describes a top-level domain of the population.
type TLD struct {
	Label  string
	Signed bool
	// Weight is the share of SLDs under this TLD.
	Weight float64
}

// Rates are the deployment probabilities used by the generator. The
// defaults are calibrated to the paper's observations: ~85% of TLDs signed
// (§2.3), SLD signing below 1% with per-TLD variation (§6.1.1: com 0.43%,
// net 0.61%, edu 0.89%), and a deposit population sized so that ≈1.2% of
// queried domains find a DLV record (§5.3).
type Rates struct {
	// TLDSigned is the probability a TLD is signed.
	TLDSigned float64
	// SLDSigned is the base probability an SLD is signed; per-TLD
	// multipliers apply on top.
	SLDSigned float64
	// DSGivenSigned is the probability a signed SLD has a DS in its
	// (signed) parent.
	DSGivenSigned float64
	// DepositGivenIsland and DepositGivenChained are the DLV-deposit
	// probabilities for islands and for chained zones.
	DepositGivenIsland  float64
	DepositGivenChained float64
}

// DefaultRates returns the paper-calibrated deployment rates.
func DefaultRates() Rates {
	return Rates{
		TLDSigned:           0.85,
		SLDSigned:           0.018,
		DSGivenSigned:       0.35,
		DepositGivenIsland:  0.95,
		DepositGivenChained: 0.10,
	}
}

// DefaultRatesWithDeposit returns the default rates rescaled so that the
// expected fraction of domains with a DLV deposit is approximately
// depositRate — the knob the registry-size ablation sweeps.
func DefaultRatesWithDeposit(depositRate float64) Rates {
	r := DefaultRates()
	// deposits ≈ signed × (islandShare×pIsland + chainShare×pChained).
	islandShare := 1 - r.DSGivenSigned*r.TLDSigned
	perSigned := islandShare*r.DepositGivenIsland + (1-islandShare)*r.DepositGivenChained
	r.SLDSigned = depositRate / perSigned
	if r.SLDSigned > 1 {
		r.SLDSigned = 1
	}
	return r
}

// PopulationConfig configures the Alexa-like generator.
type PopulationConfig struct {
	// Size is the number of domains (the paper uses up to 1,000,000).
	Size int
	// Seed drives all randomness.
	Seed int64
	// Rates are the deployment rates; zero value means DefaultRates.
	Rates Rates
}

// Population is a ranked, annotated domain list. A generated population is a
// handful of heap objects however many domains it holds: the Domain array,
// one string that every Name is a slice of, and the position table Lookup
// searches — nothing per name for the collector to trace beyond the array's
// own string headers.
type Population struct {
	Domains []Domain
	TLDs    []TLD
	// index finds a domain by name; the zero Population has none and finds
	// nothing.
	index posTable
}

// posTable is an open-addressed hash table (linear probing) from a name to
// its position in a list the table does not hold: a slot is 0 when free,
// else the position plus one. The caller supplies name equality at a
// position, so the same table serves the generator — which de-duplicates
// against names still sitting in its byte arena — and Lookup afterwards. It
// is sized once for at most half occupancy and never grows.
type posTable []uint32

// newPosTable sizes a table for up to n names: the power of two ≥ 2n.
func newPosTable(n int) posTable {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return make(posTable, size)
}

// hashName is FNV-1a over a name's bytes, whether it is a Name already or
// still sits in the generator's arena.
func hashName[T dns.Name | []byte](name T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// start is where the probe sequence of a name hashing to h begins: the high
// half folded into the low bits the mask keeps.
func (t posTable) start(h uint64) uint32 {
	return uint32(h^h>>32) & uint32(len(t)-1)
}

// find returns the position stored for a name hashing to h; is reports
// whether the name at a position is the one sought.
func (t posTable) find(h uint64, is func(pos uint32) bool) (uint32, bool) {
	if len(t) == 0 {
		return 0, false
	}
	for i := t.start(h); t[i] != 0; i = (i + 1) & uint32(len(t)-1) {
		if pos := t[i] - 1; is(pos) {
			return pos, true
		}
	}
	return 0, false
}

// add stores pos for a name hashing to h that find did not report.
func (t posTable) add(h uint64, pos uint32) {
	i := t.start(h)
	for t[i] != 0 {
		i = (i + 1) & uint32(len(t)-1)
	}
	t[i] = pos + 1
}

// tldTable is the built-in TLD mix: labels, SLD share, and a signing-rate
// multiplier reflecting §6.1.1 (edu signs about twice as often as com).
var tldTable = []struct {
	label      string
	weight     float64
	signedMult float64
}{
	{"com", 0.50, 0.72}, // 0.43%/0.60% of the base rate
	{"net", 0.08, 1.00},
	{"org", 0.07, 1.10},
	{"ru", 0.05, 1.30},
	{"de", 0.05, 1.50},
	{"jp", 0.03, 0.60},
	{"uk", 0.03, 0.80},
	{"cn", 0.03, 0.40},
	{"info", 0.025, 0.90},
	{"fr", 0.02, 1.40},
	{"nl", 0.02, 1.80},
	{"br", 0.02, 1.00},
	{"it", 0.015, 0.70},
	{"pl", 0.015, 1.20},
	{"au", 0.01, 0.90},
	{"in", 0.01, 0.50},
	{"ir", 0.01, 0.30},
	{"biz", 0.01, 0.80},
	{"edu", 0.01, 1.48}, // 0.89% of the base rate
	{"io", 0.01, 0.60},
	{"us", 0.005, 0.90},
	{"ca", 0.005, 1.00},
	{"se", 0.005, 2.20}, // .se was a DNSSEC pioneer
	{"ch", 0.005, 1.60},
	{"gov", 0.005, 3.00},
}

// syllables build pronounceable synthetic SLD labels.
var syllables = []string{
	"an", "ar", "ba", "be", "bo", "ca", "ce", "co", "da", "de", "di", "do",
	"el", "en", "er", "fa", "fi", "fo", "ga", "ge", "go", "ha", "he", "hi",
	"in", "ka", "ke", "ko", "la", "le", "li", "lo", "ma", "me", "mi", "mo",
	"na", "ne", "ni", "no", "on", "or", "pa", "pe", "pi", "po", "ra", "re",
	"ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "un", "va",
	"ve", "vi", "vo", "wa", "we", "wi", "ya", "yo", "za", "ze", "zo", "qu",
}

// maxPopulation keeps every offset into the generator's name arena (at most
// 25 bytes a name) inside the uint32 it is stored in.
const maxPopulation = 1 << 27

// AlexaLike generates a ranked population of cfg.Size domains.
func AlexaLike(cfg PopulationConfig) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("dataset: population size %d must be positive", cfg.Size)
	}
	if cfg.Size > maxPopulation {
		return nil, fmt.Errorf("dataset: population size %d exceeds %d", cfg.Size, maxPopulation)
	}
	rates := cfg.Rates
	if rates == (Rates{}) {
		rates = DefaultRates()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	pop := &Population{index: newPosTable(cfg.Size)}

	// TLD signing decisions are global, not per-domain.
	tldSigned := make(map[string]bool, len(tldTable))
	for _, t := range tldTable {
		signed := rng.Float64() < rates.TLDSigned
		tldSigned[t.label] = signed
		pop.TLDs = append(pop.TLDs, TLD{Label: t.label, Signed: signed, Weight: t.weight})
	}

	// Cumulative weights for TLD sampling.
	cum := make([]float64, len(tldTable))
	total := 0.0
	for i, t := range tldTable {
		total += t.weight
		cum[i] = total
	}

	// Names go end to end into one byte arena — ends[i] closes name i — and
	// are sliced out of a single string once the arena has stopped growing.
	// Each candidate is written straight onto the arena's tail and
	// de-duplicated there; syllables and TLD labels are lowercase letters,
	// so every name is valid as written.
	arena := make([]byte, 0, 16*cfg.Size)
	ends := make([]uint32, 0, cfg.Size)
	var cand uint32 // where the candidate on the tail begins
	inArena := func(pos uint32) bool {
		from := uint32(0)
		if pos > 0 {
			from = ends[pos-1]
		}
		return string(arena[from:ends[pos]]) == string(arena[cand:])
	}
	pop.Domains = make([]Domain, 0, cfg.Size)
	for rank := 1; len(pop.Domains) < cfg.Size; rank++ {
		// Pick a TLD by weight.
		x := rng.Float64() * total
		ti := 0
		for i := range cum {
			if x <= cum[i] {
				ti = i
				break
			}
		}
		t := tldTable[ti]
		cand = uint32(len(arena))
		for n := 2 + rng.Intn(4); n > 0; n-- { // 2..5 syllables: 4..10 chars
			arena = append(arena, syllables[rng.Intn(len(syllables))]...)
		}
		labelEnd := len(arena)
		arena = appendTLD(arena, t.label)
		h := hashName(arena[cand:])
		if _, dup := pop.index.find(h, inArena); dup {
			// The position is unique, and labels carry no digits of their own.
			arena = strconv.AppendInt(arena[:labelEnd], int64(len(pop.Domains)), 10)
			arena = appendTLD(arena, t.label)
			h = hashName(arena[cand:])
		}
		pop.index.add(h, uint32(len(pop.Domains)))
		ends = append(ends, uint32(len(arena)))

		d := Domain{Rank: int32(len(pop.Domains) + 1)}
		if rng.Float64() < rates.SLDSigned*t.signedMult {
			d.Signed = true
			// A DS needs a signed parent to live in.
			if tldSigned[t.label] && rng.Float64() < rates.DSGivenSigned {
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
	names, start := string(arena), uint32(0)
	for i := range pop.Domains {
		pop.Domains[i].Name = dns.Name(names[start:ends[i]])
		start = ends[i]
	}
	return pop, nil
}

// appendTLD closes an SLD label on the arena with ".tld.".
func appendTLD(arena []byte, tld string) []byte {
	arena = append(arena, '.')
	arena = append(arena, tld...)
	return append(arena, '.')
}

// Lookup returns the population entry for a domain name.
func (p *Population) Lookup(name dns.Name) (*Domain, bool) {
	pos, ok := p.Position(name)
	if !ok {
		return nil, false
	}
	return &p.Domains[pos], true
}

// Position returns where a domain name sits in Domains.
func (p *Population) Position(name dns.Name) (int, bool) {
	pos, ok := p.index.find(hashName(name), func(pos uint32) bool { return p.Domains[pos].Name == name })
	return int(pos), ok
}

// Top returns the n highest-ranked domains (all of them when n exceeds the
// population).
func (p *Population) Top(n int) []Domain {
	if n > len(p.Domains) {
		n = len(p.Domains)
	}
	return p.Domains[:n]
}

// TLDSignedMap returns the label → signed mapping for universe building.
func (p *Population) TLDSignedMap() map[string]bool {
	out := make(map[string]bool, len(p.TLDs))
	for _, t := range p.TLDs {
		out[t.Label] = t.Signed
	}
	return out
}

// Census summarizes the deployment state of the population (experiment E12).
type Census struct {
	Size      int
	Signed    int
	Chained   int
	Islands   int
	Deposited int
	// PerTLDSigned is the per-TLD signed-SLD rate.
	PerTLDSigned map[string]float64
}

// Census computes deployment statistics.
func (p *Population) Census() Census {
	c := Census{Size: len(p.Domains), PerTLDSigned: make(map[string]float64)}
	perTLDTotal := make(map[string]int)
	perTLDSigned := make(map[string]int)
	for i := range p.Domains {
		d := &p.Domains[i]
		tld := d.TLD()
		perTLDTotal[tld]++
		if d.Signed {
			c.Signed++
			perTLDSigned[tld]++
			if d.DSInParent {
				c.Chained++
			} else {
				c.Islands++
			}
		}
		if d.InDLV {
			c.Deposited++
		}
	}
	for tld, total := range perTLDTotal {
		c.PerTLDSigned[tld] = float64(perTLDSigned[tld]) / float64(total)
	}
	return c
}

// Shuffled returns a new ordering of the top-n domains under the given
// seed, for the paper's "order matters" experiment (§5.1).
func (p *Population) Shuffled(n int, seed int64) []Domain {
	top := p.Top(n)
	out := make([]Domain, len(top))
	copy(out, top)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
