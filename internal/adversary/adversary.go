// Package adversary models the curious operator of the DLV registry — the
// paper's uninvolved party (§3) — as an inference engine: given the
// client-attributed observations the registry collects, what does it
// actually learn about users?
//
// The engine reconstructs per-client browsing profiles, quantifies how
// identifying they are (profile uniqueness, anonymity-set size, per-client
// entropy), measures whether clients can be re-identified across
// observation windows (cross-epoch linkability), and mounts the obvious
// dictionary-inversion attack against the paper's hashed-DLV remedy
// (§6.2.2/§6.2.4): domain names are public, so hashes of the popular
// universe are precomputable, and a hash miss only protects names the
// attacker's dictionary does not cover.
//
// All computations offer a parallel aggregation path bounded by a workers
// knob; results are invariant in it — per-client work lands in index slots
// and reductions run in a fixed order, so a 16-way run is byte-identical to
// a sequential one.
package adversary

import (
	"math"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/par"
)

// Profile is the adversary's reconstruction of one client: the multiset of
// identifiers the registry observed on the client's behalf. Identifiers are
// domain names in plain mode and hash labels in hashed mode; the inference
// machinery is deliberately identical for both, because hashing renames the
// identifiers without hiding the profile's shape.
type Profile struct {
	// Client is the attributed stub endpoint.
	Client netip.Addr
	// Items maps identifier → observation count.
	Items map[string]int
	// Queries is the raw registry-exchange count attributed to the client.
	Queries int
	// Case1 and Case2 count the client's distinct observed domains per
	// leakage case (zero in hashed mode, where the split is unknowable).
	Case1, Case2 int
}

// FromCapture converts the capture layer's per-client registry view into
// adversary profiles. Hashed observations take precedence: a hashed
// registry only ever shows the adversary labels.
func FromCapture(profiles []capture.ClientProfile) []Profile {
	out := make([]Profile, 0, len(profiles))
	for _, cp := range profiles {
		p := Profile{
			Client:  cp.Client,
			Items:   make(map[string]int, len(cp.Domains)+len(cp.Hashed)),
			Queries: cp.Queries,
		}
		for label, n := range cp.Hashed {
			p.Items[label] += n
		}
		if len(cp.Hashed) == 0 {
			for d, n := range cp.Domains {
				p.Items[string(d)] += n
			}
			for _, c := range cp.Cases {
				switch c {
				case capture.Case1:
					p.Case1++
				case capture.Case2:
					p.Case2++
				}
			}
		}
		out = append(out, p)
	}
	slices.SortFunc(out, func(x, y Profile) int { return x.Client.Compare(y.Client) })
	return out
}

// fingerprint canonicalizes a profile's distinct item set; two clients with
// equal fingerprints are indistinguishable by what the registry saw of them.
func (p *Profile) fingerprint() string {
	keys := make([]string, 0, len(p.Items))
	for k := range p.Items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x00")
}

// EntropyBits is the Shannon entropy (in bits) of the client's observation
// distribution — how much the registry's view of this client spreads over
// distinct names. Zero for empty or single-item profiles.
func (p *Profile) EntropyBits() float64 {
	total := 0
	for _, n := range p.Items {
		total += n
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	// Iterate in sorted-key order so floating-point accumulation is
	// deterministic regardless of map iteration.
	keys := make([]string, 0, len(p.Items))
	for k := range p.Items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q := float64(p.Items[k]) / float64(total)
		h -= q * math.Log2(q)
	}
	return h
}

// Report aggregates what the registry learns from a set of client profiles.
type Report struct {
	// Clients is the number of clients with at least one observation.
	Clients int
	// MeanItems is the mean distinct-identifier count per client; the size
	// of the browsing profile the registry reconstructs.
	MeanItems float64
	// MeanQueries is the mean raw registry-exchange count per client.
	MeanQueries float64
	// UniqueClients is the number of clients whose profile (distinct item
	// set) no other client shares; Uniqueness is the fraction. A unique
	// profile is a fingerprint: observing it again re-identifies the user.
	UniqueClients int
	Uniqueness    float64
	// MeanAnonymitySet is the mean, over clients, of the number of clients
	// sharing their exact profile (1 = fully identified); MinAnonymitySet
	// is the smallest class observed.
	MeanAnonymitySet float64
	MinAnonymitySet  int
	// MeanEntropyBits is the mean per-client profile entropy.
	MeanEntropyBits float64
	// Case1 and Case2 sum the clients' distinct observed domains per case.
	Case1, Case2 int
}

// Analyze computes the profile-level privacy metrics, fanning per-client
// work out over at most workers goroutines. Results are identical at any
// workers setting.
func Analyze(profiles []Profile, workers int) Report {
	n := len(profiles)
	rep := Report{}
	if n == 0 {
		return rep
	}
	fingerprints := make([]string, n)
	entropies := make([]float64, n)
	_ = par.Each(n, workers, func(i int) error {
		fingerprints[i] = profiles[i].fingerprint()
		entropies[i] = profiles[i].EntropyBits()
		return nil
	})

	classSize := make(map[string]int, n)
	for _, fp := range fingerprints {
		classSize[fp]++
	}
	rep.Clients = n
	rep.MinAnonymitySet = n
	sumItems, sumQueries, sumAnon, sumEntropy := 0, 0, 0, 0.0
	for i := range profiles {
		sumItems += len(profiles[i].Items)
		sumQueries += profiles[i].Queries
		size := classSize[fingerprints[i]]
		sumAnon += size
		if size == 1 {
			rep.UniqueClients++
		}
		if size < rep.MinAnonymitySet {
			rep.MinAnonymitySet = size
		}
		sumEntropy += entropies[i]
		rep.Case1 += profiles[i].Case1
		rep.Case2 += profiles[i].Case2
	}
	rep.MeanItems = float64(sumItems) / float64(n)
	rep.MeanQueries = float64(sumQueries) / float64(n)
	rep.Uniqueness = float64(rep.UniqueClients) / float64(n)
	rep.MeanAnonymitySet = float64(sumAnon) / float64(n)
	rep.MeanEntropyBits = sumEntropy / float64(n)
	return rep
}
