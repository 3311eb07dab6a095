package adversary

import (
	"net/netip"

	"github.com/dnsprivacy/lookaside/internal/par"
)

// LinkReport quantifies cross-epoch re-identification: the adversary
// observes two windows of traffic and tries to match the anonymous profiles
// of the second window back to the clients of the first by set overlap.
type LinkReport struct {
	// Clients is the number of clients present (with observations) in both
	// epochs — the linkable population.
	Clients int
	// Reidentified counts clients whose second-epoch profile is closest
	// (strictly, by Jaccard similarity over distinct items) to their own
	// first-epoch profile; Ambiguous counts ties for best match.
	Reidentified int
	Ambiguous    int
	// Fraction is Reidentified / Clients.
	Fraction float64
	// MeanBestJaccard is the mean similarity of each client's best match —
	// how confident the adversary's matching is.
	MeanBestJaccard float64
}

// jaccard computes |A∩B| / |A∪B| over the distinct item sets.
func jaccard(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Linkability matches every epoch-B profile against all epoch-A profiles
// and reports how many clients the adversary re-identifies. Only clients
// observed in both epochs count; matching runs over at most workers
// goroutines with results invariant in the setting.
func Linkability(epochA, epochB []Profile, workers int) LinkReport {
	byClientA := make(map[netip.Addr]int, len(epochA))
	for i := range epochA {
		if len(epochA[i].Items) > 0 {
			byClientA[epochA[i].Client] = i
		}
	}
	// The linkable population: epoch-B profiles whose client also appears
	// in epoch A, in epoch-B order (deterministic: profiles are sorted).
	var targets []int
	for i := range epochB {
		if len(epochB[i].Items) == 0 {
			continue
		}
		if _, ok := byClientA[epochB[i].Client]; ok {
			targets = append(targets, i)
		}
	}
	rep := LinkReport{Clients: len(targets)}
	if len(targets) == 0 {
		return rep
	}

	type match struct {
		best      float64
		bestIdx   int
		ambiguous bool
	}
	matches := make([]match, len(targets))
	_ = par.Each(len(targets), workers, func(ti int) error {
		b := &epochB[targets[ti]]
		m := match{bestIdx: -1}
		// Scan candidates in slice order so ties resolve deterministically.
		for ai := range epochA {
			if len(epochA[ai].Items) == 0 {
				continue
			}
			s := jaccard(b.Items, epochA[ai].Items)
			switch {
			case s > m.best:
				m.best, m.bestIdx, m.ambiguous = s, ai, false
			case s == m.best && m.bestIdx >= 0 && s > 0:
				m.ambiguous = true
			}
		}
		matches[ti] = m
		return nil
	})

	sum := 0.0
	for ti, m := range matches {
		sum += m.best
		if m.bestIdx < 0 || m.best == 0 {
			continue
		}
		if m.ambiguous {
			rep.Ambiguous++
			continue
		}
		if epochA[m.bestIdx].Client == epochB[targets[ti]].Client {
			rep.Reidentified++
		}
	}
	rep.Fraction = float64(rep.Reidentified) / float64(rep.Clients)
	rep.MeanBestJaccard = sum / float64(len(targets))
	return rep
}
