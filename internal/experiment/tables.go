package experiment

import (
	"fmt"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/par"
	"github.com/dnsprivacy/lookaside/internal/resconf"
)

// Table1Result reproduces the environment matrix.
type Table1Result struct {
	Environments []resconf.Environment
}

// Table1 returns experiment E1 (the Table 1 matrix is configuration data,
// not a measurement; reproducing it validates the environment model).
func Table1() *Table1Result {
	return &Table1Result{Environments: resconf.Environments()}
}

// String renders Table 1.
func (r *Table1Result) String() string {
	t := metrics.Table{
		Title:  "Table 1 — Resolver versions per environment",
		Header: []string{"Operating System", "BIND (P)", "BIND (M)", "Unbound (P)", "Unbound (M)"},
	}
	for _, e := range r.Environments {
		t.AddRow(e.OS, e.BINDPackaged, e.BINDManual, e.UnboundPackaged, e.UnboundManual)
	}
	return t.String()
}

// Table2Result reproduces the installer-default comparison.
type Table2Result struct {
	Rows   []resconf.BINDOptions
	Labels []string
	Issues []resconf.ComplianceIssue
}

// Table2 returns experiment E2.
func Table2() (*Table2Result, error) {
	res := &Table2Result{}
	for _, inst := range []resconf.Installer{resconf.AptGet, resconf.Yum, resconf.Manual} {
		opts, err := resconf.DefaultBIND(inst)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, opts)
		res.Labels = append(res.Labels, inst.String())
	}
	res.Issues = resconf.ComplianceIssues()
	return res, nil
}

// String renders Table 2 plus the ARM-compliance findings.
func (r *Table2Result) String() string {
	var b strings.Builder
	t := metrics.Table{
		Title:  "Table 2 — Configuration variations",
		Header: []string{"", "DNSSEC", "validation", "DLV", "trust anchor"},
	}
	boolWord := func(v bool) string {
		if v {
			return "Yes"
		}
		return "N/A"
	}
	for i, row := range r.Rows {
		t.AddRow(r.Labels[i], boolWord(row.DNSSECEnable), row.Validation, row.Lookaside, boolWord(row.TrustAnchorIncluded))
	}
	b.WriteString(t.String())
	it := metrics.Table{
		Title:  "Defaults contradicting the BIND ARM",
		Header: []string{"installer", "option", "default", "ARM says"},
	}
	for _, is := range r.Issues {
		it.AddRow(is.Installer, is.Option, is.Default, is.ARMSays)
	}
	b.WriteString(it.String())
	return b.String()
}

// Table3Row is one measured configuration scenario of Table 3.
type Table3Row struct {
	Scenario resconf.Scenario
	// PredictedLeak is what the configuration model says.
	PredictedLeak bool
	// ChainedLeaked counts chain-complete secured domains observed at the
	// registry; IslandsLeaked the islands (always expected).
	ChainedLeaked int
	IslandsLeaked int
	// SecureCount is how many of the 45 validated as secure.
	SecureCount int
}

// Table3Result carries the secured-domain leakage measurement.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs experiment E6: query the 45 DNSSEC-secured domains under
// each installer scenario and measure which leak to the registry.
func Table3(p Params) (*Table3Result, error) {
	scenarios, err := resconf.Scenarios()
	if err != nil {
		return nil, err
	}
	secure := dataset.SecureDomains()
	chained := make(map[dns.Name]bool)
	for _, d := range secure {
		if d.DSInParent {
			chained[d.Name] = true
		}
	}
	pop, err := buildPopulation(p.scaled(400, 100), p.Seed)
	if err != nil {
		return nil, err
	}

	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{Rows: make([]Table3Row, len(scenarios))}
	err = par.Each(len(scenarios), p.workers(), func(i int) error {
		sc := scenarios[i]
		cfg := u.ResolverConfig(sc.Config.RootAnchorPresent, sc.Config.LookasideEnabled)
		cfg.ValidationEnabled = sc.Config.ValidationEnabled
		if !sc.Config.DLVAnchorPresent && cfg.Lookaside != nil {
			cfg.Lookaside.Anchor = nil
		}
		rep, err := runAudit(u, cfg, secure)
		if err != nil {
			return fmt.Errorf("table3 scenario %s: %w", sc.Name, err)
		}
		row := Table3Row{Scenario: sc, PredictedLeak: sc.Config.SecuredDomainsLeak()}
		for _, name := range rep.CapturedDomains() {
			if chained[name] {
				row.ChainedLeaked++
			} else if _, isIsland := findSecure(secure, name); isIsland {
				row.IslandsLeaked++
			}
		}
		row.SecureCount = rep.SecureAnswers
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// findSecure reports whether name is one of the secured-45 islands.
func findSecure(secure []dataset.Domain, name dns.Name) (*dataset.Domain, bool) {
	for i := range secure {
		if secure[i].Name == name {
			return &secure[i], secure[i].IsIsland()
		}
	}
	return nil, false
}

// String renders Table 3.
func (r *Table3Result) String() string {
	t := metrics.Table{
		Title:  "Table 3 — Secured domains sent to DLV per configuration",
		Header: []string{"scenario", "predicted", "chained leaked", "islands leaked", "secure answers"},
	}
	leakWord := func(v bool) string {
		if v {
			return "Yes"
		}
		return "No"
	}
	for _, row := range r.Rows {
		measured := row.ChainedLeaked > 0
		t.AddRow(row.Scenario.Name, leakWord(row.PredictedLeak)+"/"+leakWord(measured),
			row.ChainedLeaked, row.IslandsLeaked, row.SecureCount)
	}
	return t.String()
}

// Table4Row is one workload size of the query-type census.
type Table4Row struct {
	Domains int
	Counts  map[dns.Type]int
	DLV     int
}

// Table4Result carries the query-type mix per workload size.
type Table4Result struct {
	Rows []Table4Row
}

// table45Sizes are the workload sizes of Tables 4 and 5.
var table45Sizes = []int{100, 1000, 10_000, 100_000}

// table4Types are the columns the paper tabulates.
var table4Types = []dns.Type{dns.TypeA, dns.TypeAAAA, dns.TypeDNSKEY, dns.TypeDS, dns.TypeNS, dns.TypePTR}

// Table4 runs experiment E8: count the resolver's outbound queries by type
// for growing workloads, read off one crawl.
func Table4(p Params) (*Table4Result, error) {
	sizes := p.sizeLadder(table45Sizes...)
	pop, err := buildPopulation(sizes[len(sizes)-1], p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &Table4Result{Rows: make([]Table4Row, len(sizes))}
	err = crawl(u, u.ResolverConfig(true, true), pop, sizes, func(i int, rep core.Report) {
		row := Table4Row{Domains: sizes[i], Counts: make(map[dns.Type]int), DLV: rep.Capture.DLVQueries}
		for _, t := range table4Types {
			row.Counts[t] = rep.Capture.QueriesByType[t]
		}
		res.Rows[i] = row
	})
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	return res, nil
}

// String renders Table 4.
func (r *Table4Result) String() string {
	t := metrics.Table{
		Title:  "Table 4 — Number of DNS queries by type",
		Header: []string{"# Domains", "A", "AAAA", "DNSKEY", "DS", "NS", "PTR", "DLV"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Domains,
			row.Counts[dns.TypeA], row.Counts[dns.TypeAAAA], row.Counts[dns.TypeDNSKEY],
			row.Counts[dns.TypeDS], row.Counts[dns.TypeNS], row.Counts[dns.TypePTR], row.DLV)
	}
	return t.String()
}
