// Package lookaside is a from-scratch reproduction of "Look-Aside at Your
// Own Risk: Privacy Implications of DNSSEC Look-Aside Validation"
// (Mohaisen et al., ICDCS 2017 / IEEE TDSC): a complete DNS + DNSSEC + DLV
// stack with a simulated internet, a validating recursive resolver, the
// BIND/Unbound configuration semantics the paper measures, and the privacy
// remedies it proposes.
//
// The package is the public facade over the internal substrates. A typical
// session builds a Simulation (a synthetic Alexa-like domain population
// served by root/TLD/SLD servers and a DLV registry), picks an Environment
// (an installer/configuration scenario from the paper), and runs an Audit
// that reports what the registry observed:
//
//	sim, err := lookaside.NewSimulation(lookaside.SimulationConfig{Domains: 10_000, Seed: 1})
//	...
//	report, err := sim.Audit(lookaside.Environments().YumDefault, sim.TopDomains(1000))
//	fmt.Printf("leaked %d domains (%.1f%%)\n", report.LeakedDomains, 100*report.LeakProportion)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package lookaside

import (
	"errors"
	"fmt"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resconf"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// SimulationConfig configures the synthetic internet.
type SimulationConfig struct {
	// Domains is the Alexa-like population size (up to the paper's 1M).
	Domains int
	// Seed makes the simulation reproducible.
	Seed int64
	// OmitSecured leaves out the paper's 45 DNSSEC-secured test domains,
	// which NewSimulation otherwise adds beside the population.
	OmitSecured bool
	// HashedRegistry runs the privacy-preserving DLV registry (§6.2.2).
	HashedRegistry bool
	// NSEC3Registry serves registry denials with NSEC3 (§7.3 ablation).
	NSEC3Registry bool
	// EmptyRegistry models ISC's phase-out (§7.3.2).
	EmptyRegistry bool
	// TXTRemedy / ZBitRemedy arm the authoritative half of the DLV-aware
	// DNS remedies (§6.2.1).
	TXTRemedy  bool
	ZBitRemedy bool
}

// Simulation is a running synthetic internet.
type Simulation struct {
	cfg SimulationConfig
	pop *dataset.Population
	u   *universe.Universe
}

// NewSimulation builds a simulation.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	if cfg.Domains <= 0 {
		return nil, errors.New("lookaside: Domains must be positive")
	}
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: cfg.Domains, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("lookaside: generating population: %w", err)
	}
	opts := universe.Options{
		Seed:           cfg.Seed,
		Population:     pop,
		RegistryHashed: cfg.HashedRegistry,
		RegistryNSEC3:  cfg.NSEC3Registry,
		RegistryEmpty:  cfg.EmptyRegistry,
		TXTRemedy:      cfg.TXTRemedy,
		ZBitRemedy:     cfg.ZBitRemedy,
	}
	if !cfg.OmitSecured {
		opts.Extra = dataset.SecureDomains()
	}
	u, err := universe.Build(opts)
	if err != nil {
		return nil, fmt.Errorf("lookaside: building universe: %w", err)
	}
	return &Simulation{cfg: cfg, pop: pop, u: u}, nil
}

// TopDomains returns the n most popular domain names of the population.
func (s *Simulation) TopDomains(n int) []string {
	top := s.pop.Top(n)
	out := make([]string, len(top))
	for i := range top {
		out[i] = top[i].Name.String()
	}
	return out
}

// SecuredDomains returns the 45-domain DNSSEC-secured test list (§5.2).
func (s *Simulation) SecuredDomains() []string {
	sd := dataset.SecureDomains()
	out := make([]string, len(sd))
	for i := range sd {
		out[i] = sd[i].Name.String()
	}
	return out
}

// DepositCount returns the number of DLV records in the registry.
func (s *Simulation) DepositCount() int { return s.u.Registry.DepositCount() }

// Environment is one resolver configuration scenario.
type Environment struct {
	// Name labels the scenario in reports.
	Name string
	// Validation mirrors dnssec-enable + dnssec-validation != no.
	Validation bool
	// RootAnchor is present when the root trust anchor is configured.
	RootAnchor bool
	// Lookaside arms the DLV validator; LookasideAnchor controls whether
	// the registry trust anchor is available.
	Lookaside       bool
	LookasideAnchor bool
	// SignedOnlyPolicy applies the stricter islands-only consultation
	// rule instead of BIND's lax on-failure rule.
	SignedOnlyPolicy bool
	// Remedy selects the client-side remedy gating: "", "txt" or "zbit".
	Remedy string
	// NoAggressiveNegCache disables NSEC-span reuse.
	NoAggressiveNegCache bool
	// QNameMinimization walks the hierarchy per RFC 7816, hiding full
	// query names from root and TLD servers.
	QNameMinimization bool
	// PaddingBlock pads stub-facing responses to this block size
	// (RFC 7830/8467); 0 disables padding.
	PaddingBlock int
}

// EnvironmentSet bundles the paper's named scenarios.
type EnvironmentSet struct {
	// AptGetDefault, YumDefault, ManualInstall, AptGetARMEdit are the
	// Table 2/3 installer scenarios with DLV armed.
	AptGetDefault Environment
	YumDefault    Environment
	ManualInstall Environment
	AptGetARMEdit Environment
	// UnboundDefault is the anchor-file-armed Unbound scenario.
	UnboundDefault Environment
}

// Environments returns the named scenarios derived from the resconf
// models.
func Environments() EnvironmentSet {
	scenarios, err := resconf.Scenarios()
	if err != nil {
		// Scenarios is deterministic over built-in data; failure is a
		// programming error.
		panic(err)
	}
	byName := make(map[string]resconf.Scenario, len(scenarios))
	for _, sc := range scenarios {
		byName[sc.Name] = sc
	}
	mk := func(name string) Environment {
		sc := byName[name]
		return Environment{
			Name:            sc.Name,
			Validation:      sc.Config.ValidationEnabled,
			RootAnchor:      sc.Config.RootAnchorPresent,
			Lookaside:       sc.Config.LookasideEnabled,
			LookasideAnchor: sc.Config.DLVAnchorPresent,
		}
	}
	return EnvironmentSet{
		AptGetDefault:  mk("apt-get"),
		YumDefault:     mk("yum"),
		ManualInstall:  mk("manual"),
		AptGetARMEdit:  mk("apt-get†"),
		UnboundDefault: mk("unbound"),
	}
}

// AuditReport summarizes what the DLV registry observed during a workload.
type AuditReport struct {
	// QueriedDomains is the workload size; SecureAnswers how many answers
	// validated (AD set).
	QueriedDomains int
	SecureAnswers  int
	// LeakedDomains is the number of distinct Case-2 domains the registry
	// observed; Case1Domains the deposit-backed ones.
	LeakedDomains int
	Case1Domains  int
	// LeakProportion is LeakedDomains/QueriedDomains.
	LeakProportion float64
	// DLVQueries / DLVNoError / DLVNXDomain describe raw registry traffic.
	DLVQueries  int
	DLVNoError  int
	DLVNXDomain int
	// SuppressedByNegCache counts look-aside queries avoided by aggressive
	// negative caching; SkippedByRemedy those avoided by TXT/Z-bit
	// signaling.
	SuppressedByNegCache int
	SkippedByRemedy      int
	// Elapsed is simulated wall time; TrafficBytes the wire volume.
	Elapsed      time.Duration
	TrafficBytes int64
	// LatencyP50/LatencyP95 are percentile resolution times of the
	// workload's A queries.
	LatencyP50, LatencyP95 time.Duration
	// QueryTypeCounts is the resolver's outbound query mix, keyed by type
	// mnemonic ("A", "DS", "DLV", ...).
	QueryTypeCounts map[string]int
}

// Audit runs a workload of domain names through a fresh resolver in the
// given environment and reports the registry's observations.
func (s *Simulation) Audit(env Environment, domains []string) (*AuditReport, error) {
	workload := make([]dataset.Domain, 0, len(domains))
	for _, d := range domains {
		name, err := dns.MakeName(d)
		if err != nil {
			return nil, fmt.Errorf("lookaside: bad domain %q: %w", d, err)
		}
		workload = append(workload, dataset.Domain{Name: name})
	}

	cfg := s.u.ResolverConfig(env.RootAnchor, env.Lookaside)
	cfg.ValidationEnabled = env.Validation
	cfg.QNameMinimization = env.QNameMinimization
	cfg.PaddingBlock = env.PaddingBlock
	if cfg.Lookaside != nil {
		if !env.LookasideAnchor {
			cfg.Lookaside.Anchor = nil
		}
		if env.SignedOnlyPolicy {
			cfg.Lookaside.Policy = resolver.PolicySignedOnly
		}
		switch env.Remedy {
		case "":
		case "txt":
			cfg.Lookaside.Remedy = resolver.RemedyTXT
		case "zbit":
			cfg.Lookaside.Remedy = resolver.RemedyZBit
		default:
			return nil, fmt.Errorf("lookaside: unknown remedy %q", env.Remedy)
		}
		cfg.Lookaside.DisableAggressiveNegCache = env.NoAggressiveNegCache
	}

	// Each audit runs on its own simnet shard (private clock and capture),
	// so repeated Audits on one Simulation stay independent without
	// resetting shared taps.
	auditor, err := core.NewShardAuditor(s.u, core.Options{Resolver: cfg})
	if err != nil {
		return nil, err
	}
	if err := auditor.QueryDomains(workload); err != nil {
		return nil, err
	}
	rep := auditor.Report()

	out := &AuditReport{
		QueriedDomains:       rep.QueriedDomains,
		SecureAnswers:        rep.SecureAnswers,
		LeakedDomains:        rep.Capture.Case2Domains,
		Case1Domains:         rep.Capture.Case1Domains,
		LeakProportion:       rep.LeakProportion(),
		DLVQueries:           rep.Capture.DLVQueries,
		DLVNoError:           rep.Capture.DLVNoError,
		DLVNXDomain:          rep.Capture.DLVNXDomain,
		SuppressedByNegCache: rep.ResolverStats.DLVSuppressed,
		SkippedByRemedy:      rep.ResolverStats.DLVSkippedByRemedy,
		Elapsed:              rep.Elapsed,
		TrafficBytes:         rep.Capture.BytesTotal,
		LatencyP50:           rep.LatencyP50,
		LatencyP95:           rep.LatencyP95,
		QueryTypeCounts:      make(map[string]int, len(rep.Capture.QueriesByType)),
	}
	for t, n := range rep.Capture.QueriesByType {
		out.QueryTypeCounts[t.String()] = n
	}
	return out, nil
}
