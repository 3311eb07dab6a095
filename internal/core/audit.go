// Package core implements the paper's primary contribution as a reusable
// component: the DLV privacy-leakage audit. An Auditor drives a workload of
// stub queries through a configured recursive resolver on a simulated
// internet, captures every wire exchange, and reports leakage (Case-1 vs
// Case-2), validation utility, query mix, latency, and traffic volume —
// the quantities behind every table and figure in the evaluation.
package core

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// Auditor wires a universe, a resolver configuration, and a capture
// analyzer into one measurement instrument.
type Auditor struct {
	shard    *simnet.Shard
	r        *resolver.Resolver
	analyzer *capture.Analyzer

	started       time.Duration
	queried       int
	stubQueries   int
	secureAnswers int
	servfails     int
	// latHist counts primary-query latencies by exact value. Simulated
	// latencies are sums of a few fixed link delays, so the histogram
	// stays tiny while the sample count grows with the workload —
	// million-domain sweeps keep O(distinct values) memory instead of one
	// slice element per query, and per-shard histograms merge by addition.
	latHist  map[time.Duration]int
	latCount int
	nextID   uint16
	// qscratch is the reusable stub-query message, rebuilt per query. The
	// network never retains queries (the wire path re-derives the server's
	// view from the encoded bytes) and each stub exchange is synchronous,
	// so one scratch per auditor is safe and saves three allocations per
	// stub query.
	qscratch  dns.Message
	qscratchQ [1]dns.Question
	qscratchE dns.EDNS
}

// Options configures an audit.
type Options struct {
	// Resolver is the resolver configuration (typically from
	// universe.ResolverConfig, adjusted for the environment under test).
	Resolver resolver.Config
	// Shard, when non-nil, is the pre-built network shard NewShardAuditor
	// attaches to instead of creating a fresh one. Experiments use it to
	// configure the shard — fault plans, extra taps — before the audit
	// starts, and to read per-link fault statistics after it ends.
	Shard *simnet.Shard
}

// analyzerConfig is the capture configuration of every auditor and of the
// sharded merge.
func analyzerConfig(u *universe.Universe) capture.Config {
	return capture.Config{
		RegistryZone: u.RegistryZone,
		Deposits:     u.Registry,
		Hashed:       u.Registry.Hashed(),
	}
}

// NewAuditor attaches a fresh auditor to the universe's own clock domain
// (the network's root shard): its capture tap is a global tap, so it also
// sees the traffic of every other shard.
func NewAuditor(u *universe.Universe, opts Options) (*Auditor, error) {
	opts.Shard = u.Net.Root()
	return NewShardAuditor(u, opts)
}

// NewShardAuditor attaches an auditor to a shard of the universe's network
// (opts.Shard, or a fresh one): the capture tap and resolver live on the
// shard, so the audit's clock, taps, and caches are isolated from any other
// shard. Experiments use it to keep audits on a shared universe from
// interfering; ShardedAuditor runs several concurrently.
func NewShardAuditor(u *universe.Universe, opts Options) (*Auditor, error) {
	sh := opts.Shard
	if sh == nil {
		sh = u.NewShard()
	}
	an := capture.NewAnalyzer(analyzerConfig(u))
	sh.AddTap(an.Tap)
	r, err := u.StartShardResolver(sh, opts.Resolver)
	if err != nil {
		return nil, fmt.Errorf("core: starting shard resolver: %w", err)
	}
	return &Auditor{
		shard: sh, r: r, analyzer: an,
		started: sh.Now(),
		latHist: make(map[time.Duration]int),
	}, nil
}

// Shard returns the network shard the audit runs on.
func (a *Auditor) Shard() *simnet.Shard { return a.shard }

// Resolver exposes the resolver under audit (for stats and direct calls).
func (a *Auditor) Resolver() *resolver.Resolver { return a.r }

// Analyzer exposes the capture analyzer.
func (a *Auditor) Analyzer() *capture.Analyzer { return a.analyzer }

// aaaaSharePercent is the share of domains additionally queried for AAAA,
// matching the paper's capture mix (roughly half).
const aaaaSharePercent = 50

// QueryDomain sends the stub queries for one domain (A always, AAAA for
// aaaaSharePercent of domains) through the network.
func (a *Auditor) QueryDomain(name dns.Name) error {
	return a.QueryDomainAs(universe.StubAddr, name)
}

// QueryDomainAs sends the stub queries for one domain from an explicit
// client endpoint, so the capture attributes every resulting exchange
// (including the resolver's look-aside queries) to that client. Multi-client
// adversary workloads use it; QueryDomain is the single-stub special case.
func (a *Auditor) QueryDomainAs(client netip.Addr, name dns.Name) error {
	a.queried++
	a.stubQueries++
	a.nextID++
	start := a.shard.Now()
	resp, err := a.stubQuery(client, a.nextID, name, dns.TypeA)
	if err != nil {
		return fmt.Errorf("core: stub query %s/A: %w", name, err)
	}
	a.latHist[a.shard.Now()-start]++
	a.latCount++
	if resp.Header.AD {
		a.secureAnswers++
	}
	if resp.Header.RCode == dns.RCodeServFail {
		a.servfails++
	}
	if int(hash64(string(name))%100) < aaaaSharePercent {
		a.stubQueries++
		a.nextID++
		resp, err := a.stubQuery(client, a.nextID, name, dns.TypeAAAA)
		if err != nil {
			return fmt.Errorf("core: stub query %s/AAAA: %w", name, err)
		}
		if resp.Header.RCode == dns.RCodeServFail {
			a.servfails++
		}
	}
	return nil
}

// stubQuery rebuilds the auditor's scratch message in the NewQuery shape
// (recursive, EDNS0 + DO) and exchanges it from the client endpoint.
func (a *Auditor) stubQuery(client netip.Addr, id uint16, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	q := &a.qscratch
	q.Header = dns.Header{ID: id, Opcode: dns.OpcodeQuery, RD: true}
	a.qscratchQ[0] = dns.Question{Name: name, Type: qtype, Class: dns.ClassIN}
	q.Question = a.qscratchQ[:]
	q.Answer, q.Authority, q.Additional = nil, nil, nil
	a.qscratchE = dns.EDNS{UDPSize: dns.DefaultUDPSize, DO: true}
	q.EDNS = &a.qscratchE
	return a.shard.Exchange(client, universe.ResolverAddr, q)
}

// QueryDomains runs a domain workload in order.
func (a *Auditor) QueryDomains(domains []dataset.Domain) error {
	for i := range domains {
		if err := a.QueryDomain(domains[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// Report is the combined audit outcome.
type Report struct {
	// QueriedDomains is the workload size.
	QueriedDomains int
	// SecureAnswers counts stub answers with the AD bit (validated).
	SecureAnswers int
	// StubQueries counts every stub question asked (A and AAAA alike);
	// Servfails counts how many of them came back SERVFAIL. Their ratio is
	// the availability loss a fault regime inflicts on the stub.
	StubQueries int
	// Servfails counts stub answers with RCODE=SERVFAIL.
	Servfails int
	// Capture is the wire-level summary (leak cases, query mix, bytes).
	Capture capture.Report
	// ResolverStats are the resolver-internal counters (suppressions,
	// remedy skips, cache hits).
	ResolverStats resolver.Stats
	// Elapsed is the simulated wall time the workload took.
	Elapsed time.Duration
	// LatencyP50 and LatencyP95 are percentile resolution times of the
	// workload's primary (A) queries.
	LatencyP50, LatencyP95 time.Duration
	// observed are the distinct domains the registry saw.
	observed []dns.Name
}

// CapturedDomains returns the distinct domains observed at the registry
// (Case-1 and Case-2 alike).
func (r *Report) CapturedDomains() []dns.Name { return r.observed }

// LeakedDomains returns the distinct domains the registry observed without
// holding a deposit (Case-2).
func (r *Report) LeakedDomains() int { return r.Capture.Case2Domains }

// LeakProportion is the share of queried domains leaked to the registry.
func (r *Report) LeakProportion() float64 {
	if r.QueriedDomains == 0 {
		return 0
	}
	return float64(r.Capture.Case2Domains) / float64(r.QueriedDomains)
}

// UtilityProportion is the share of look-aside queries that found a
// deposit ("No error"), the §5.3 validation-utility measure.
func (r *Report) UtilityProportion() float64 {
	total := r.Capture.DLVNoError + r.Capture.DLVNXDomain
	if total == 0 {
		return 0
	}
	return float64(r.Capture.DLVNoError) / float64(total)
}

// ServfailProportion is the share of stub questions answered SERVFAIL —
// the stub-visible availability cost of a fault regime.
func (r *Report) ServfailProportion() float64 {
	if r.StubQueries == 0 {
		return 0
	}
	return float64(r.Servfails) / float64(r.StubQueries)
}

// Report snapshots the audit so far.
func (a *Auditor) Report() Report {
	p50, p95 := histPercentiles(a.latHist, a.latCount)
	return Report{
		QueriedDomains: a.queried,
		SecureAnswers:  a.secureAnswers,
		StubQueries:    a.stubQueries,
		Servfails:      a.servfails,
		Capture:        a.analyzer.Snapshot(),
		ResolverStats:  a.r.Stats(),
		Elapsed:        a.shard.Now() - a.started,
		LatencyP50:     p50,
		LatencyP95:     p95,
		observed:       a.analyzer.ObservedDomains(),
	}
}

// histPercentiles computes the nearest-rank (Hyndman-Fan type 1) 50th and
// 95th percentile from a value-count histogram: the p-th percentile is the
// smallest value whose cumulative count reaches rank ceil(p·n), which is
// exactly the 1-based rank-R element of the sorted sample
// (TestHistPercentilesMatch pins the equivalence against a sort of the raw
// sample). Sharded reports merge per-shard histograms by addition and call
// this once, never materializing the pooled sample.
func histPercentiles(hist map[time.Duration]int, n int) (p50, p95 time.Duration) {
	if n == 0 {
		return 0, 0
	}
	values := make([]time.Duration, 0, len(hist))
	for v := range hist {
		values = append(values, v)
	}
	slices.Sort(values)
	r50 := int(math.Ceil(0.50 * float64(n)))
	r95 := int(math.Ceil(0.95 * float64(n)))
	cum := 0
	have50 := false
	for _, v := range values {
		cum += hist[v]
		if !have50 && cum >= r50 {
			p50, have50 = v, true
		}
		if cum >= r95 {
			p95 = v
			break
		}
	}
	return p50, p95
}

// hash64 is FNV-1a with an offset basis one digit short of the standard
// 14695981039346656037. The constant stays as it is: the AAAA split, and
// through it every golden, depends on it.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
