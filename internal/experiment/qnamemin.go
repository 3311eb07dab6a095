package experiment

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// ExposurePoint summarizes one resolver mode of the q-name minimization
// ablation.
type ExposurePoint struct {
	Mode string
	// RootFullNames / TLDFullNames count queries at the root / TLD servers
	// that disclosed the full (2+ label) query name.
	RootFullNames int
	TLDFullNames  int
	// RootQueries / TLDQueries are the total queries those parties saw.
	RootQueries int
	TLDQueries  int
	// DLVLeaked is the registry leakage, unchanged by minimization (the
	// registry is contacted with the full name either way).
	DLVLeaked int
	// Queries is the total outbound query count (minimization costs extra
	// probes).
	Queries int
}

// QNameMinResult carries the ablation.
type QNameMinResult struct {
	Domains int
	Points  []ExposurePoint
}

// QNameMinimization runs the threat-model extension the paper's §3 alludes
// to: RFC 7816 minimization removes full query names from root and TLD
// observations, but does nothing about the DLV registry — the paper's
// uninvolved party keeps seeing everything.
func QNameMinimization(p Params) (*QNameMinResult, error) {
	n := p.scaled(10_000, 200)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	// A disclosure is a query whose name reveals a user domain of the
	// population (infrastructure names — arpa, the registry path — do not
	// count: they say nothing about browsing behavior).
	userDomain := func(name dns.Name) bool {
		for n := name; n.LabelCount() >= 2; n = n.Parent() {
			if n.LabelCount() == 2 {
				_, ok := pop.Lookup(n)
				return ok
			}
		}
		return false
	}
	res := &QNameMinResult{Domains: n}
	for _, mode := range []struct {
		name string
		min  bool
	}{{"full-qname", false}, {"minimized", true}} {
		u.Net.ResetTaps()
		var pt ExposurePoint
		pt.Mode = mode.name
		u.Net.AddTap(func(ev simnet.Event) {
			full := userDomain(ev.Question.Name)
			switch ev.DstRole {
			case simnet.RoleRoot:
				pt.RootQueries++
				if full {
					pt.RootFullNames++
				}
			case simnet.RoleTLD:
				pt.TLDQueries++
				if full {
					pt.TLDFullNames++
				}
			}
		})
		cfg := u.ResolverConfig(true, true)
		cfg.QNameMinimization = mode.min
		auditor, err := core.NewAuditor(u, core.Options{Resolver: cfg})
		if err != nil {
			return nil, err
		}
		if err := auditor.QueryDomains(pop.Top(n)); err != nil {
			return nil, fmt.Errorf("qname-min mode %s: %w", mode.name, err)
		}
		rep := auditor.Report()
		pt.DLVLeaked = rep.Capture.Case2Domains
		pt.Queries = rep.Capture.Events
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the ablation.
func (r *QNameMinResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("Extension — q-name minimization vs. party exposure (%d domains)", r.Domains),
		Header: []string{"mode", "root full/total", "tld full/total", "dlv leaked", "total queries"},
	}
	for _, pt := range r.Points {
		t.AddRow(pt.Mode,
			fmt.Sprintf("%d/%d", pt.RootFullNames, pt.RootQueries),
			fmt.Sprintf("%d/%d", pt.TLDFullNames, pt.TLDQueries),
			pt.DLVLeaked, pt.Queries)
	}
	return t.String()
}

// PhaseOutResult compares leakage before and after the ISC phase-out
// (§7.3.2): zones removed, service kept running.
type PhaseOutResult struct {
	Domains int
	// Normal / PhasedOut are the Case-1/Case-2 splits in each state.
	NormalCase1, NormalCase2 int
	PhasedCase1, PhasedCase2 int
	// NormalQueries / PhasedQueries are raw registry query counts.
	NormalQueries, PhasedQueries int
}

// PhaseOut runs the §7.3.2 experiment: with the registry emptied, every
// surviving query is Case-2 — "the problem highlighted in the paper has
// become more severe due to the phasing out approach".
func PhaseOut(p Params) (*PhaseOutResult, error) {
	n := p.scaled(10_000, 200)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	res := &PhaseOutResult{Domains: n}
	for _, mode := range []struct {
		name  string
		empty bool
	}{{"normal", false}, {"phased-out", true}} {
		u, err := buildUniverse(pop, p.Seed, func(o *universe.Options) { o.RegistryEmpty = mode.empty })
		if err != nil {
			return nil, err
		}
		rep, err := runAudit(u, u.ResolverConfig(true, true), pop.Top(n))
		if err != nil {
			return nil, err
		}
		if mode.empty {
			res.PhasedCase1 = rep.Capture.Case1Domains
			res.PhasedCase2 = rep.Capture.Case2Domains
			res.PhasedQueries = rep.Capture.DLVQueries
		} else {
			res.NormalCase1 = rep.Capture.Case1Domains
			res.NormalCase2 = rep.Capture.Case2Domains
			res.NormalQueries = rep.Capture.DLVQueries
		}
	}
	return res, nil
}

// String renders the comparison.
func (r *PhaseOutResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("§7.3.2 ISC phase-out — all queries become Case-2 (%d domains)", r.Domains),
		Header: []string{"registry", "case-1", "case-2", "dlv queries"},
	}
	t.AddRow("normal", r.NormalCase1, r.NormalCase2, r.NormalQueries)
	t.AddRow("phased-out", r.PhasedCase1, r.PhasedCase2, r.PhasedQueries)
	return t.String()
}

// PolicyResult compares BIND's lax on-failure rule with the stricter
// signed-only rule (§6.1.2's "not every domain name ... should be sent to a
// DLV server").
type PolicyResult struct {
	Domains int
	// LaxLeaked / StrictLeaked are Case-2 counts per policy;
	// StrictValidated shows islands still validate under the strict rule.
	LaxLeaked, StrictLeaked   int
	LaxQueries, StrictQueries int
	LaxSecure, StrictSecure   int
}

// PolicyAblation runs the rule-tightening experiment: consulting the
// registry only for zones that are actually signed eliminates the bulk of
// Case-2 leakage while preserving DLV's validation utility.
func PolicyAblation(p Params) (*PolicyResult, error) {
	n := p.scaled(10_000, 200)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &PolicyResult{Domains: n}
	for _, mode := range []struct {
		name   string
		strict bool
	}{{"lax", false}, {"strict", true}} {
		cfg := u.ResolverConfig(true, true)
		if mode.strict {
			cfg.Lookaside.Policy = resolver.PolicySignedOnly
		}
		rep, err := runAudit(u, cfg, pop.Top(n))
		if err != nil {
			return nil, err
		}
		if mode.strict {
			res.StrictLeaked = rep.Capture.Case2Domains
			res.StrictQueries = rep.Capture.DLVQueries
			res.StrictSecure = rep.SecureAnswers
		} else {
			res.LaxLeaked = rep.Capture.Case2Domains
			res.LaxQueries = rep.Capture.DLVQueries
			res.LaxSecure = rep.SecureAnswers
		}
	}
	return res, nil
}

// String renders the ablation.
func (r *PolicyResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("§6.1.2 rule ablation — lax vs signed-only look-aside (%d domains)", r.Domains),
		Header: []string{"policy", "case-2 leaked", "dlv queries", "secure answers"},
	}
	t.AddRow("lax (BIND)", r.LaxLeaked, r.LaxQueries, r.LaxSecure)
	t.AddRow("signed-only", r.StrictLeaked, r.StrictQueries, r.StrictSecure)
	return t.String()
}
