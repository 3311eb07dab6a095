package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/par"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// FaultKnobs tunes experiment E17 (retry amplification of leakage). The
// zero value selects the defaults below; cmd/dlvmeasure maps its -faultseed,
// -loss, -dlv-outage, and -breaker flags onto it.
type FaultKnobs struct {
	// FaultSeed seeds every fault schedule (0: Params.Seed). Fault draws
	// are keyed separately per stream, so the same seed exercises the same
	// loss pattern whether or not other faults are enabled.
	FaultSeed int64
	// Loss is the drop probability of the "loss" condition (0: 0.30).
	Loss float64
	// OutageFraction is the down share of each flap period in the "flap"
	// condition (0: 0.5; clamped to 1).
	OutageFraction float64
	// DisableBreaker drops the circuit-breaker variants, measuring only
	// the unprotected resilient resolver.
	DisableBreaker bool
}

// The breaker cells' DLV circuit breaker: it opens after breakerThreshold
// consecutive registry failures and probes again after breakerCooldown.
const (
	breakerThreshold = 5
	breakerCooldown  = 2 * time.Minute
)

// withDefaults resolves zero knobs.
func (k FaultKnobs) withDefaults(p Params) FaultKnobs {
	if k.FaultSeed == 0 {
		k.FaultSeed = p.Seed
	}
	if k.Loss <= 0 {
		k.Loss = 0.30
	}
	if k.OutageFraction <= 0 {
		k.OutageFraction = 0.5
	}
	if k.OutageFraction > 1 {
		k.OutageFraction = 1
	}
	return k
}

// cellResilience builds the per-cell resolver resilience policy: defaults for
// attempts/backoff/deadline, TCP fallback on, breaker per the cell.
func cellResilience(breaker bool) *resolver.Resilience {
	res := &resolver.Resilience{TCPFallback: true}
	if breaker {
		res.Breaker = &faults.BreakerConfig{
			Threshold: breakerThreshold,
			Cooldown:  breakerCooldown,
		}
	}
	return res
}

// FaultCell is one (fault condition, breaker on/off) measurement of the
// E17 grid. SendsPerLookup is the experiment's headline number: queries the
// registry operator observes (or would observe, were the link up) per stub
// lookup — retries included, which is exactly how faults amplify leakage.
type FaultCell struct {
	Condition string
	Breaker   bool
	// RegistrySends is every query sent toward the registry link
	// (delivered or not); SendsPerLookup normalizes it by workload size;
	// Amplification compares against the healthy/no-breaker baseline.
	RegistrySends  int
	SendsPerLookup float64
	Amplification  float64
	// Leaked is the distinct Case-2 domain count the registry observed.
	Leaked int
	// ServfailRate is the share of stub questions answered SERVFAIL.
	ServfailRate float64
	// LatencyP50/P95 are stub-visible resolution latencies.
	LatencyP50, LatencyP95 time.Duration
	// Resolver-side counters for the cell.
	Retries, TCPFallbacks, DeadlineExceeded int
	BreakerOpens, BreakerSkips              int
	DLVFailures                             int
}

// FaultAblationRow is one resolver mode measured under the full-outage
// condition (the §8.4 registry-retirement scenario).
type FaultAblationRow struct {
	Mode             string
	RegistrySends    int
	SendsPerLookup   float64
	Amplification    float64
	ServfailRate     float64
	LatencyP95       time.Duration
	DeadlineExceeded int
}

// FaultTruncationRow is one TCP-fallback setting measured under forced
// truncation of registry responses.
type FaultTruncationRow struct {
	TCPFallback    bool
	Utility        float64
	SecureRate     float64
	TCPFallbacks   int
	SendsPerLookup float64
}

// FaultsResult carries experiment E17: leakage, availability, and latency
// under deterministic fault schedules on the registry link, with and
// without the resilient resolver's circuit breaker.
type FaultsResult struct {
	Domains   int
	FaultSeed int64
	Knobs     FaultKnobs
	// Cells is the condition × breaker grid; Cells[0] (healthy,
	// no-breaker) is the amplification baseline.
	Cells []FaultCell
	// Ablation compares resolver modes under the full outage.
	Ablation []FaultAblationRow
	// Truncation measures forced-TC handling with TCP fallback off/on.
	Truncation []FaultTruncationRow
}

// faultConditions is the E17 condition sweep. Every plan targets only the
// registry link — the rest of the DNS stays healthy, isolating how
// look-aside pathology amplifies look-aside leakage.
func faultConditions(k FaultKnobs) []struct {
	name string
	plan faults.Plan
} {
	seed := k.FaultSeed
	flapPeriod := time.Minute
	return []struct {
		name string
		plan faults.Plan
	}{
		{"healthy", faults.Plan{Seed: seed}},
		{"loss", faults.Plan{Seed: seed, LossRate: k.Loss}},
		{"jitter", faults.Plan{Seed: seed, JitterMax: 80 * time.Millisecond,
			SpikeRate: 0.05, SpikeLatency: 400 * time.Millisecond}},
		{"flap", faults.Plan{Seed: seed, FlapPeriod: flapPeriod,
			FlapDown: time.Duration(k.OutageFraction * float64(flapPeriod))}},
		{"outage", fullOutagePlan(seed)},
		{"servfail-storm", faults.Plan{Seed: seed, Byzantine: faults.ByzServFail, ByzantineRate: 1}},
		{"bogus-sig", faults.Plan{Seed: seed, Byzantine: faults.ByzBogusSig, ByzantineRate: 1}},
		{"wrong-denial", faults.Plan{Seed: seed, Byzantine: faults.ByzWrongDenial, ByzantineRate: 1}},
	}
}

// fullOutagePlan models the retired registry: down for the whole run.
func fullOutagePlan(seed int64) faults.Plan {
	return faults.Plan{Seed: seed, Outages: []faults.Window{{Start: 0, End: 1 << 62}}}
}

// faultRun is one audit to execute; faultOutcome its raw measurements.
type faultRun struct {
	plan  faults.Plan
	resil *resolver.Resilience
}

type faultOutcome struct {
	rep core.Report
	fs  faults.Stats
}

// runFaultAudit executes one workload on a fresh shard with the given fault
// plan installed on the registry link. Installing the plan before the
// resolver starts means even the resolver's bootstrap (registry DNSKEY
// fetch) runs under the fault regime, as a real outage would hit it.
func runFaultAudit(u *universe.Universe, run faultRun, workload []dataset.Domain) (faultOutcome, error) {
	sh := u.NewShard()
	sh.SetFaultPlan(universe.RegistryAddr, run.plan)
	cfg := u.ResolverConfig(true, true)
	cfg.Resilience = run.resil
	auditor, err := core.NewShardAuditor(u, core.Options{Resolver: cfg, Shard: sh})
	if err != nil {
		return faultOutcome{}, fmt.Errorf("experiment: %w", err)
	}
	if err := auditor.QueryDomains(workload); err != nil {
		return faultOutcome{}, err
	}
	rep := auditor.Report()
	fs, ok := sh.FaultStats(universe.RegistryAddr)
	if !ok {
		return faultOutcome{}, fmt.Errorf("experiment: fault stats missing for registry link")
	}
	return faultOutcome{rep: rep, fs: fs}, nil
}

// sendsPerLookup normalizes registry-link sends by workload size.
func sendsPerLookup(o faultOutcome) float64 {
	if o.rep.QueriedDomains == 0 {
		return 0
	}
	return float64(o.fs.Attempts) / float64(o.rep.QueriedDomains)
}

// Faults runs experiment E17: drive the audit workload through the
// resilient resolver while the registry link degrades per deterministic
// fault schedules, and measure how retries amplify what the registry
// operator observes — then show the DLV circuit breaker capping that
// amplification. Every cell runs on its own shard with its own fault
// state, so the grid fans out over Params.Workers with byte-identical
// results at any width.
func Faults(p Params, knobs FaultKnobs) (*FaultsResult, error) {
	k := knobs.withDefaults(p)
	n := p.scaled(20_000, 300)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	workload := pop.Domains

	conds := faultConditions(k)
	breakers := []bool{false}
	if !k.DisableBreaker {
		breakers = append(breakers, true)
	}

	// Assemble the full run list up front: the condition × breaker grid,
	// then the legacy-resolver outage run, then the truncation pair. A
	// flat list fans out over workers in one pass; all reductions below
	// happen in fixed index order.
	var runs []faultRun
	for _, c := range conds {
		for _, br := range breakers {
			runs = append(runs, faultRun{plan: c.plan, resil: cellResilience(br)})
		}
	}
	legacyIdx := len(runs)
	runs = append(runs, faultRun{plan: fullOutagePlan(k.FaultSeed), resil: nil})
	truncIdx := len(runs)
	truncPlan := faults.Plan{Seed: k.FaultSeed, TruncateRate: 1}
	runs = append(runs,
		faultRun{plan: truncPlan, resil: &resolver.Resilience{TCPFallback: false}},
		faultRun{plan: truncPlan, resil: &resolver.Resilience{TCPFallback: true}})

	outcomes := make([]faultOutcome, len(runs))
	err = par.Each(len(runs), p.workers(), func(i int) error {
		o, err := runFaultAudit(u, runs[i], workload)
		if err != nil {
			return fmt.Errorf("fault run %d: %w", i, err)
		}
		outcomes[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &FaultsResult{Domains: n, FaultSeed: k.FaultSeed, Knobs: k}
	baseline := sendsPerLookup(outcomes[0]) // healthy, no breaker
	amp := func(o faultOutcome) float64 {
		if baseline == 0 {
			return 0
		}
		return sendsPerLookup(o) / baseline
	}

	i := 0
	for _, c := range conds {
		for _, br := range breakers {
			o := outcomes[i]
			st := o.rep.ResolverStats
			res.Cells = append(res.Cells, FaultCell{
				Condition:        c.name,
				Breaker:          br,
				RegistrySends:    o.fs.Attempts,
				SendsPerLookup:   sendsPerLookup(o),
				Amplification:    amp(o),
				Leaked:           o.rep.LeakedDomains(),
				ServfailRate:     o.rep.ServfailProportion(),
				LatencyP50:       o.rep.LatencyP50,
				LatencyP95:       o.rep.LatencyP95,
				Retries:          st.Retries,
				TCPFallbacks:     st.TCPFallbacks,
				DeadlineExceeded: st.DeadlineExceeded,
				BreakerOpens:     st.BreakerOpens,
				BreakerSkips:     st.BreakerSkips,
				DLVFailures:      st.DLVFailures,
			})
			i++
		}
	}

	ablationRow := func(mode string, o faultOutcome) FaultAblationRow {
		return FaultAblationRow{
			Mode:             mode,
			RegistrySends:    o.fs.Attempts,
			SendsPerLookup:   sendsPerLookup(o),
			Amplification:    amp(o),
			ServfailRate:     o.rep.ServfailProportion(),
			LatencyP95:       o.rep.LatencyP95,
			DeadlineExceeded: o.rep.ResolverStats.DeadlineExceeded,
		}
	}
	res.Ablation = append(res.Ablation, ablationRow("legacy", outcomes[legacyIdx]))
	// The resilient outage cells are already in the grid: condition index 4
	// ("outage") times the breaker stride.
	outageBase := 4 * len(breakers)
	res.Ablation = append(res.Ablation, ablationRow("resilient", outcomes[outageBase]))
	if !k.DisableBreaker {
		res.Ablation = append(res.Ablation, ablationRow("resilient+breaker", outcomes[outageBase+1]))
	}

	for j, fb := range []bool{false, true} {
		o := outcomes[truncIdx+j]
		secure := 0.0
		if o.rep.QueriedDomains > 0 {
			secure = float64(o.rep.SecureAnswers) / float64(o.rep.QueriedDomains)
		}
		res.Truncation = append(res.Truncation, FaultTruncationRow{
			TCPFallback:    fb,
			Utility:        o.rep.UtilityProportion(),
			SecureRate:     secure,
			TCPFallbacks:   o.rep.ResolverStats.TCPFallbacks,
			SendsPerLookup: sendsPerLookup(o),
		})
	}
	return res, nil
}

// onOff renders a breaker/fallback flag.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// String renders the three E17 tables.
func (r *FaultsResult) String() string {
	var b strings.Builder
	grid := metrics.Table{
		Title: fmt.Sprintf("E17 — retry amplification of leakage (%d domains, fault seed %d)",
			r.Domains, r.FaultSeed),
		Header: []string{"condition", "breaker", "sends", "sends/lookup", "amplification",
			"case-2", "servfail", "p50", "p95", "retries", "deadline", "br-open", "br-skip"},
	}
	for _, c := range r.Cells {
		grid.AddRow(c.Condition, onOff(c.Breaker), c.RegistrySends,
			fmt.Sprintf("%.3f", c.SendsPerLookup),
			fmt.Sprintf("%.2fx", c.Amplification),
			c.Leaked, metrics.Percent(c.ServfailRate),
			c.LatencyP50, c.LatencyP95,
			c.Retries, c.DeadlineExceeded, c.BreakerOpens, c.BreakerSkips)
	}
	b.WriteString(grid.String())
	b.WriteByte('\n')

	abl := metrics.Table{
		Title: "E17 — resolver modes during full registry outage (registry retirement)",
		Header: []string{"mode", "sends", "sends/lookup", "amplification", "servfail",
			"p95", "deadline"},
	}
	for _, row := range r.Ablation {
		abl.AddRow(row.Mode, row.RegistrySends,
			fmt.Sprintf("%.3f", row.SendsPerLookup),
			fmt.Sprintf("%.2fx", row.Amplification),
			metrics.Percent(row.ServfailRate), row.LatencyP95, row.DeadlineExceeded)
	}
	b.WriteString(abl.String())
	b.WriteByte('\n')

	tc := metrics.Table{
		Title:  "E17 — forced truncation of registry responses",
		Header: []string{"tcp fallback", "utility", "validated", "tcp retries", "sends/lookup"},
	}
	for _, row := range r.Truncation {
		tc.AddRow(onOff(row.TCPFallback), metrics.Percent(row.Utility),
			metrics.Percent(row.SecureRate), row.TCPFallbacks,
			fmt.Sprintf("%.3f", row.SendsPerLookup))
	}
	b.WriteString(tc.String())
	return b.String()
}
