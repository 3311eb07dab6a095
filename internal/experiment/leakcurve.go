package experiment

import (
	"fmt"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/par"
)

// LeakPoint is one sample-size point of Figs. 8 and 9.
type LeakPoint struct {
	// N is the number of queried domains.
	N int
	// DLVQueries is the raw look-aside query count at the registry.
	DLVQueries int
	// LeakedDomains is the number of distinct Case-2 domains the registry
	// observed (Fig. 8's y-axis).
	LeakedDomains int
	// Case1Domains is the deposit-backed observation count.
	Case1Domains int
	// Proportion is LeakedDomains/N (Fig. 9's y-axis).
	Proportion float64
	// Suppressed counts look-aside queries avoided by aggressive negative
	// caching — the mechanism behind the decay.
	Suppressed int
}

// LeakCurveResult carries Figs. 8 and 9.
type LeakCurveResult struct {
	Points []LeakPoint
}

// paperSampleSizes are the sweep points of Figs. 8/9.
var paperSampleSizes = []int{100, 1000, 10_000, 100_000, 1_000_000}

// LeakCurve runs experiments E3/E4 (Figs. 8 and 9): one correctly
// configured, DLV-armed resolver crawls the top-N domains, and at each
// paper sample size the distinct domains leaked to the registry so far are
// read off.
func LeakCurve(p Params) (*LeakCurveResult, error) {
	sizes := p.sizeLadder(paperSampleSizes...)
	pop, err := buildPopulation(sizes[len(sizes)-1], p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &LeakCurveResult{Points: make([]LeakPoint, len(sizes))}
	err = crawl(u, u.ResolverConfig(true, true), pop, sizes, func(i int, rep core.Report) {
		res.Points[i] = leakPoint(sizes[i], rep)
	})
	if err != nil {
		return nil, fmt.Errorf("leak curve: %w", err)
	}
	return res, nil
}

// leakPoint is a Figs. 8/9 point from an audit of the top n domains.
func leakPoint(n int, rep core.Report) LeakPoint {
	return LeakPoint{
		N:             n,
		DLVQueries:    rep.Capture.DLVQueries,
		LeakedDomains: rep.Capture.Case2Domains,
		Case1Domains:  rep.Capture.Case1Domains,
		Proportion:    rep.LeakProportion(),
		Suppressed:    rep.ResolverStats.DLVSuppressed,
	}
}

// Fig8 renders the leaked-domain counts.
func (r *LeakCurveResult) Fig8() *metrics.Figure {
	s := &metrics.Series{Name: "leaked domains"}
	q := &metrics.Series{Name: "dlv queries"}
	for _, pt := range r.Points {
		s.Add(float64(pt.N), float64(pt.LeakedDomains))
		q.Add(float64(pt.N), float64(pt.DLVQueries))
	}
	return &metrics.Figure{
		Title:  "Fig. 8 — Number of DLV queries / leaked domains vs. sample size",
		XLabel: "domains", YLabel: "count",
		Series: []*metrics.Series{s, q},
	}
}

// Fig9 renders the leaked proportion.
func (r *LeakCurveResult) Fig9() *metrics.Figure {
	s := &metrics.Series{Name: "leaked proportion"}
	for _, pt := range r.Points {
		s.Add(float64(pt.N), pt.Proportion)
	}
	return &metrics.Figure{
		Title:  "Fig. 9 — Proportion of leaked domains vs. sample size (x log-scale)",
		XLabel: "domains", YLabel: "proportion",
		Series: []*metrics.Series{s},
	}
}

// String renders both figures plus the suppression diagnostics.
func (r *LeakCurveResult) String() string {
	var b strings.Builder
	b.WriteString(r.Fig8().String())
	b.WriteString(r.Fig9().String())
	t := metrics.Table{
		Title:  "Aggressive negative caching diagnostics",
		Header: []string{"domains", "leaked", "case-1", "suppressed", "proportion"},
	}
	for _, pt := range r.Points {
		t.AddRow(pt.N, pt.LeakedDomains, pt.Case1Domains, pt.Suppressed, metrics.Percent(pt.Proportion))
	}
	b.WriteString(t.String())
	return b.String()
}

// OrderTrial is one shuffle of the order-matters experiment (§5.1).
type OrderTrial struct {
	Shuffle    int
	Leaked     int
	Proportion float64
}

// OrderMattersResult carries the shuffle trials.
type OrderMattersResult struct {
	N      int
	Trials []OrderTrial
}

// OrderMatters runs experiment E5: query the same top-N domains in
// different orders; the aggressive negative cache makes the leaked counts
// order-dependent (the paper observed 82/84/77% across three shuffles).
func OrderMatters(p Params, trials int) (*OrderMattersResult, error) {
	n := p.scaled(100, 50)
	if trials <= 0 {
		trials = 3
	}
	// The universe (and so the registry's span structure) stays at
	// population scale — only the queried sample is small, as in §5.1.
	pop, err := buildPopulation(p.scaled(1_000_000, 4000), p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	// Trials are independent shuffles; fan them out across shards.
	res := &OrderMattersResult{N: n, Trials: make([]OrderTrial, trials)}
	err = par.Each(trials, p.workers(), func(trial int) error {
		workload := pop.Shuffled(n, p.Seed+int64(trial)*7919)
		rep, err := runAudit(u, u.ResolverConfig(true, true), workload)
		if err != nil {
			return err
		}
		res.Trials[trial] = OrderTrial{
			Shuffle:    trial + 1,
			Leaked:     rep.Capture.Case2Domains,
			Proportion: rep.LeakProportion(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the trials.
func (r *OrderMattersResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("§5.1 Order matters — %d domains, shuffled", r.N),
		Header: []string{"shuffle", "leaked", "proportion"},
	}
	for _, tr := range r.Trials {
		t.AddRow(tr.Shuffle, tr.Leaked, metrics.Percent(tr.Proportion))
	}
	return t.String()
}

// RegistrySizePoint is one deposit-count point of the registry-size
// ablation.
type RegistrySizePoint struct {
	DepositRate float64
	Deposits    int
	Leaked      int
	Proportion  float64
}

// RegistrySizeResult carries the ablation.
type RegistrySizeResult struct {
	N      int
	Points []RegistrySizePoint
}

// RegistrySize runs the repository-size ablation: Fig. 8/9's decay is
// driven by how many NSEC spans the registry zone has; sweeping the deposit
// rate shows the leaked proportion falling as the registry grows sparser
// per span. This quantifies the sensitivity discussed in EXPERIMENTS.md.
func RegistrySize(p Params) (*RegistrySizeResult, error) {
	n := p.scaled(10_000, 200)
	depositRates := []float64{0.001, 0.005, 0.02, 0.08}
	// Each rate builds its own universe, so the points are fully
	// independent and run concurrently.
	res := &RegistrySizeResult{N: n, Points: make([]RegistrySizePoint, len(depositRates))}
	err := par.Each(len(depositRates), p.workers(), func(i int) error {
		rate := depositRates[i]
		rates := dataset.DefaultRatesWithDeposit(rate)
		pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: n, Seed: p.Seed, Rates: rates})
		if err != nil {
			return err
		}
		u, err := buildUniverse(pop, p.Seed, nil)
		if err != nil {
			return err
		}
		rep, err := runAudit(u, u.ResolverConfig(true, true), pop.Top(n))
		if err != nil {
			return err
		}
		res.Points[i] = RegistrySizePoint{
			DepositRate: rate,
			Deposits:    u.Registry.DepositCount(),
			Leaked:      rep.Capture.Case2Domains,
			Proportion:  rep.LeakProportion(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the ablation.
func (r *RegistrySizeResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("Ablation — registry size vs. leakage (%d domains)", r.N),
		Header: []string{"deposit-rate", "deposits", "leaked", "proportion"},
	}
	for _, pt := range r.Points {
		t.AddRow(fmt.Sprintf("%.3f", pt.DepositRate), pt.Deposits, pt.Leaked, metrics.Percent(pt.Proportion))
	}
	return t.String()
}
