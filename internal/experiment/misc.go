package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// UtilityResult carries the §5.3 validation-utility measurement.
type UtilityResult struct {
	Domains      int
	DLVQueries   int
	NoError      int
	NXDomain     int
	NoErrorPct   float64
	LeakagePct   float64
	Case1, Case2 int
}

// Utility runs experiment E7: resolve the top-10k domains and split the
// registry's responses into "No error" (deposit found, utility provided)
// and "No such name" (pure leakage). The paper found <1.2% No-error.
func Utility(p Params) (*UtilityResult, error) {
	n := p.scaled(10_000, 200)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	rep, err := runAudit(u, u.ResolverConfig(true, true), pop.Top(n))
	if err != nil {
		return nil, err
	}
	total := rep.Capture.DLVNoError + rep.Capture.DLVNXDomain
	res := &UtilityResult{
		Domains:    n,
		DLVQueries: rep.Capture.DLVQueries,
		NoError:    rep.Capture.DLVNoError,
		NXDomain:   rep.Capture.DLVNXDomain,
		Case1:      rep.Capture.Case1Domains,
		Case2:      rep.Capture.Case2Domains,
	}
	if total > 0 {
		res.NoErrorPct = float64(rep.Capture.DLVNoError) / float64(total)
		res.LeakagePct = float64(rep.Capture.DLVNXDomain) / float64(total)
	}
	return res, nil
}

// String renders the utility split.
func (r *UtilityResult) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("§5.3 Validation utility of DLV (%d domains)", r.Domains),
		Header: []string{"dlv queries", "no-error", "nxdomain", "no-error %", "leakage %", "case-1", "case-2"},
	}
	t.AddRow(r.DLVQueries, r.NoError, r.NXDomain,
		metrics.Percent(r.NoErrorPct), metrics.Percent(r.LeakagePct), r.Case1, r.Case2)
	return t.String()
}

// DeploymentResult is the §6.1.1 deployment census of the generated
// population.
type DeploymentResult struct {
	Census dataset.Census
}

// Deployment runs experiment E12.
func Deployment(p Params) (*DeploymentResult, error) {
	n := p.scaled(1_000_000, 1000)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	return &DeploymentResult{Census: pop.Census()}, nil
}

// String renders the census against the paper's §6.1.1 reference rates.
func (r *DeploymentResult) String() string {
	var b strings.Builder
	c := r.Census
	fmt.Fprintf(&b, "== §6.1.1 DNSSEC deployment census (%d domains) ==\n", c.Size)
	fmt.Fprintf(&b, "signed: %d (%.2f%%)  chained: %d  islands: %d  deposited: %d (%.2f%%)\n",
		c.Signed, 100*float64(c.Signed)/float64(c.Size), c.Chained, c.Islands,
		c.Deposited, 100*float64(c.Deposited)/float64(c.Size))
	t := metrics.Table{
		Title:  "Per-TLD signed-SLD rate (paper: com 0.43%, net 0.61%, edu 0.89%)",
		Header: []string{"tld", "signed %"},
	}
	tlds := make([]string, 0, len(c.PerTLDSigned))
	for tld := range c.PerTLDSigned {
		tlds = append(tlds, tld)
	}
	sort.Strings(tlds)
	for _, tld := range tlds {
		t.AddRow(tld, metrics.Percent(c.PerTLDSigned[tld]))
	}
	b.WriteString(t.String())
	return b.String()
}

// DictionaryResult carries the §6.2.4 dictionary-attack analysis of the
// privacy-preserving (hashed) DLV.
type DictionaryResult struct {
	// Simulated inversion: an attacker with a dictionary covering a share
	// of the population tries to invert observed hash labels.
	Trials []DictionaryTrial
	// Model: expected work to invert one label by brute force over the
	// whole name space, at a given hash rate.
	NameSpace      float64
	HashesPerSec   float64
	SecondsPerName float64
}

// DictionaryTrial is one dictionary-coverage point.
type DictionaryTrial struct {
	CoveragePct float64
	Observed    int
	Inverted    int
}

// Dictionary runs experiment E13: simulate the offline dictionary attack
// the paper analyzes — precompute hashes of known domains and match them
// against labels observed at the hashed registry.
func Dictionary(p Params) (*DictionaryResult, error) {
	n := p.scaled(10_000, 500)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	// The observed labels: every domain queried against a hashed registry.
	observed := make(map[string]dns.Name, n)
	apex := dns.MustName("dlv.isc.org")
	for i := range pop.Domains {
		name, err := dlv.LookasideName(pop.Domains[i].Name, apex, true)
		if err != nil {
			return nil, err
		}
		observed[name.FirstLabel()] = pop.Domains[i].Name
	}

	res := &DictionaryResult{
		// §6.2.4: >350M registered domains; hashing at 10M/s.
		NameSpace:    350e6,
		HashesPerSec: 10e6,
	}
	res.SecondsPerName = res.NameSpace / res.HashesPerSec
	for _, coverage := range []float64{0.01, 0.10, 0.50, 1.0} {
		dictSize := int(coverage * float64(n))
		inverted := 0
		for i := 0; i < dictSize; i++ {
			// The attacker's dictionary is the most popular slice — the
			// realistic assumption (popular domains are public knowledge).
			name, err := dlv.LookasideName(pop.Domains[i].Name, apex, true)
			if err != nil {
				return nil, err
			}
			if _, ok := observed[name.FirstLabel()]; ok {
				inverted++
			}
		}
		res.Trials = append(res.Trials, DictionaryTrial{
			CoveragePct: coverage, Observed: len(observed), Inverted: inverted,
		})
	}
	return res, nil
}

// String renders the attack analysis.
func (r *DictionaryResult) String() string {
	var b strings.Builder
	t := metrics.Table{
		Title:  "§6.2.4 Dictionary attack on privacy-preserving DLV",
		Header: []string{"dictionary coverage", "labels observed", "inverted", "inverted %"},
	}
	for _, tr := range r.Trials {
		t.AddRow(metrics.Percent(tr.CoveragePct), tr.Observed, tr.Inverted,
			metrics.Percent(float64(tr.Inverted)/math.Max(float64(tr.Observed), 1)))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "brute force over %.0fM names at %.0fM hash/s: %.1f s per label (linear in space size)\n",
		r.NameSpace/1e6, r.HashesPerSec/1e6, r.SecondsPerName)
	return b.String()
}

// NSEC3Point compares leakage with and without aggressive caching.
type NSEC3Point struct {
	Mode       string
	DLVQueries int
	Leaked     int
	Suppressed int
}

// NSEC3Result carries the §7.3 ablation.
type NSEC3Result struct {
	Domains int
	Points  []NSEC3Point
}

// NSEC3Ablation runs experiment E14: an NSEC registry (aggressive caching
// possible) vs an NSEC3 registry (not cacheable, every miss hits the
// registry) — the paper's performance/privacy trade-off.
func NSEC3Ablation(p Params) (*NSEC3Result, error) {
	n := p.scaled(10_000, 300)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	res := &NSEC3Result{Domains: n}
	for _, mode := range []struct {
		name  string
		nsec3 bool
	}{{"nsec", false}, {"nsec3", true}} {
		u, err := buildUniverse(pop, p.Seed, func(o *universe.Options) { o.RegistryNSEC3 = mode.nsec3 })
		if err != nil {
			return nil, err
		}
		cfg := u.ResolverConfig(true, true)
		// RFC 5074 §5 allows aggressive caching only for NSEC.
		cfg.Lookaside.DisableAggressiveNegCache = mode.nsec3
		rep, err := runAudit(u, cfg, pop.Top(n))
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, NSEC3Point{
			Mode:       mode.name,
			DLVQueries: rep.Capture.DLVQueries,
			Leaked:     rep.Capture.Case2Domains,
			Suppressed: rep.ResolverStats.DLVSuppressed,
		})
	}
	return res, nil
}

// String renders the ablation.
func (r *NSEC3Result) String() string {
	t := metrics.Table{
		Title:  fmt.Sprintf("§7.3 NSEC vs NSEC3 registry (%d domains)", r.Domains),
		Header: []string{"mode", "dlv queries", "leaked domains", "suppressed"},
	}
	for _, pt := range r.Points {
		t.AddRow(pt.Mode, pt.DLVQueries, pt.Leaked, pt.Suppressed)
	}
	return t.String()
}

// FleetResult weights the Table 3 scenarios by the DNS-OARC survey to
// estimate leakage prevalence across the operator population.
type FleetResult struct {
	Survey dataset.SurveyMarginals
	// SecuredLeakShare is the estimated share of DLV-running operators
	// whose configuration leaks even chain-complete secured domains.
	SecuredLeakShare float64
}

// Fleet runs experiment E15: combine the survey marginals (§5.2) with the
// per-scenario leak predicates of Table 3.
func Fleet() (*FleetResult, error) {
	survey := dataset.Survey()
	pkg, manual, _, _ := survey.Fractions()
	// Package-default users split apt-get vs yum by distribution share;
	// assume an even split (the survey does not break it down). apt-get
	// defaults do not leak secured domains, yum defaults do not either;
	// manual-default users leak (no anchor), and we take half of apt-get
	// users to have applied the ARM edit (apt-get†), which leaks.
	aptgetModShare := pkg / 2 * 0.5
	leakShare := manual + aptgetModShare
	return &FleetResult{Survey: survey, SecuredLeakShare: leakShare}, nil
}

// String renders the fleet estimate.
func (r *FleetResult) String() string {
	var b strings.Builder
	s := r.Survey
	fmt.Fprintf(&b, "== §5.2 Operator survey (n=%d) ==\n", s.Respondents)
	fmt.Fprintf(&b, "package defaults: %d (%.1f%%)  manual defaults: %d (%.1f%%)  own config: %d (%.1f%%)  ISC DLV: %d (%.1f%%)\n",
		s.PackageDefaults, 100*float64(s.PackageDefaults)/float64(s.Respondents),
		s.ManualDefaults, 100*float64(s.ManualDefaults)/float64(s.Respondents),
		s.OwnConfig, 100*float64(s.OwnConfig)/float64(s.Respondents),
		s.UseISCDLV, 100*float64(s.UseISCDLV)/float64(s.Respondents))
	fmt.Fprintf(&b, "estimated share of operators leaking even secured domains: %s\n",
		metrics.Percent(r.SecuredLeakShare))
	return b.String()
}
