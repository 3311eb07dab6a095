// Package capture implements the measurement half of the paper's threat
// model (§3): it observes every exchange on the simulated network,
// attributes each query to a party (root, TLD, SLD, DLV registry), and
// classifies look-aside traffic into the paper's two leakage cases:
//
//   - Case-1: the queried domain has a DLV record deposited — the registry
//     is an involved party and the exposure is no worse than ordinary
//     resolution.
//   - Case-2: the domain has no deposit — the registry is an uninvolved
//     party that learns the user's query while providing no validation
//     utility. This is the privacy leak the paper quantifies.
package capture

import (
	"net/netip"
	"slices"
	"sync"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// Case classifies one look-aside observation.
type Case int

// Leakage cases per §3.
const (
	// Case1 is an intentional, deposit-backed look-aside query.
	Case1 Case = iota + 1
	// Case2 is an unintentional query for a domain without a deposit.
	Case2
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case Case1:
		return "case-1"
	case Case2:
		return "case-2"
	default:
		return "unknown"
	}
}

// DepositChecker reports whether a domain has a DLV record deposited; the
// registry implements it.
type DepositChecker interface {
	HasDeposit(domain dns.Name) bool
}

// Config configures an analyzer.
type Config struct {
	// RegistryZone is the look-aside zone, e.g. "dlv.isc.org.".
	RegistryZone dns.Name
	// Deposits classifies observed domains into Case-1/Case-2.
	Deposits DepositChecker
	// Hashed marks the privacy-preserving registry: look-aside names carry
	// hash labels that cannot be inverted to domains.
	Hashed bool
}

// Analyzer aggregates capture events. It is a simnet.Tap and is safe for
// concurrent use.
type Analyzer struct {
	mu  sync.Mutex
	cfg Config

	queriesByType map[dns.Type]int
	queriesByRole map[simnet.Role]int
	bytesTotal    int64
	bytesByRole   map[simnet.Role]int64
	events        int

	// dlvDomains are the distinct original domains observed at the
	// registry (the walk's deepest name per query); dlvCase2 the subset
	// without deposits.
	dlvDomains map[dns.Name]Case
	// dlvQueries counts raw look-aside queries (including enclosing-walk
	// steps).
	dlvQueries int
	// dlvNoError / dlvNXDomain count registry response codes (§5.3's
	// validation-utility measurement).
	dlvNoError  int
	dlvNXDomain int
	// hashedLabels counts distinct hash labels seen in hashed mode.
	hashedLabels map[string]bool
	// byClient groups the registry's observations by the client they are
	// attributed to (Event.Client) — the raw material of the adversary's
	// per-client profile reconstruction.
	byClient map[netip.Addr]*clientObs
}

// clientObs is the registry's accumulating view of one client.
type clientObs struct {
	// queries counts raw registry exchanges attributed to the client.
	queries int
	// domains counts observations per original domain; cases carries the
	// Case-1/Case-2 classification (Case-1 dominant, as in dlvDomains).
	domains map[dns.Name]int
	cases   map[dns.Name]Case
	// hashed counts observations per hash label (hashed mode).
	hashed map[string]int
}

func newClientObs() *clientObs {
	return &clientObs{
		domains: make(map[dns.Name]int),
		cases:   make(map[dns.Name]Case),
		hashed:  make(map[string]int),
	}
}

// NewAnalyzer creates an analyzer.
func NewAnalyzer(cfg Config) *Analyzer {
	return &Analyzer{
		cfg:           cfg,
		queriesByType: make(map[dns.Type]int),
		queriesByRole: make(map[simnet.Role]int),
		bytesByRole:   make(map[simnet.Role]int64),
		dlvDomains:    make(map[dns.Name]Case),
		hashedLabels:  make(map[string]bool),
		byClient:      make(map[netip.Addr]*clientObs),
	}
}

// Tap implements the simnet capture hook.
func (a *Analyzer) Tap(ev simnet.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events++
	// The by-type table counts the resolver's outbound queries (what the
	// paper's packet captures tabulate); the stub→recursive hop is still
	// accounted in Events and byte totals.
	if ev.DstRole != simnet.RoleRecursive {
		a.queriesByType[ev.Question.Type]++
	}
	a.queriesByRole[ev.DstRole]++
	a.bytesTotal += int64(ev.QuerySize + ev.RespSize)
	a.bytesByRole[ev.DstRole] += int64(ev.QuerySize + ev.RespSize)

	if ev.DstRole != simnet.RoleDLV {
		return
	}
	// The DLV-typed traffic is what the paper's captures filter on…
	if ev.Question.Type == dns.TypeDLV {
		a.dlvQueries++
		switch ev.RCode {
		case dns.RCodeNoError:
			a.dlvNoError++
		case dns.RCodeNXDomain:
			a.dlvNXDomain++
		}
	}
	// …but the registry operator observes every query that reaches the
	// server (including NS probes from q-name-minimizing resolvers), so
	// domain-level leak classification covers them all.
	a.classifyLookaside(clientOf(ev), ev.Question.Name)
}

// clientOf resolves the attribution endpoint of an event: the plumbed-in
// Event.Client, or the packet source for events captured before client
// plumbing (zero-value compatible).
func clientOf(ev simnet.Event) netip.Addr {
	if ev.Client.IsValid() {
		return ev.Client
	}
	return ev.Src
}

// clientObsFor returns (creating if needed) the per-client record. Callers
// hold a.mu.
func (a *Analyzer) clientObsFor(client netip.Addr) *clientObs {
	obs, ok := a.byClient[client]
	if !ok {
		obs = newClientObs()
		a.byClient[client] = obs
	}
	return obs
}

// classifyLookaside maps a look-aside query name back to the original
// domain and records its case, globally and against the observed client.
func (a *Analyzer) classifyLookaside(client netip.Addr, qname dns.Name) {
	rel, ok := qname.StripSuffix(a.cfg.RegistryZone)
	if !ok || rel == "" {
		return
	}
	obs := a.clientObsFor(client)
	obs.queries++
	if a.cfg.Hashed {
		// The hash is all the registry (and we, as its observer) can see.
		a.hashedLabels[rel] = true
		obs.hashed[rel]++
		return
	}
	domain, err := dns.MakeName(rel)
	if err != nil {
		return
	}
	// Enclosing-walk steps (bare TLD labels) are observations of the walk,
	// not of a domain; only multi-label names identify a domain.
	if domain.LabelCount() < 2 {
		return
	}
	c := Case2
	if a.cfg.Deposits != nil && a.cfg.Deposits.HasDeposit(domain) {
		c = Case1
	}
	noteCase(a.dlvDomains, domain, c)
	obs.domains[domain]++
	noteCase(obs.cases, domain, c)
}

// noteCase records an observation of d as c: Case-1 dominates if ever
// observed (a hit is a hit).
func noteCase(cases map[dns.Name]Case, d dns.Name, c Case) {
	if prev, seen := cases[d]; !seen || prev == Case2 {
		cases[d] = c
	}
}

// Report is the aggregated capture summary.
type Report struct {
	// Events and BytesTotal cover every exchange on the wire.
	Events     int
	BytesTotal int64
	// QueriesByType feeds Table 4.
	QueriesByType map[dns.Type]int
	// QueriesByRole / BytesByRole attribute load to parties.
	QueriesByRole map[simnet.Role]int
	BytesByRole   map[simnet.Role]int64
	// DLVQueries is the raw look-aside query count; DLVNoError and
	// DLVNXDomain split the registry's answers (§5.3).
	DLVQueries  int
	DLVNoError  int
	DLVNXDomain int
	// DomainsObserved is the number of distinct domains the registry saw;
	// Case1Domains/Case2Domains split them by deposit state. In hashed
	// mode DomainsObserved counts unlinkable hash labels instead and the
	// case split is zero — the registry learns nothing.
	DomainsObserved int
	Case1Domains    int
	Case2Domains    int
	// HashedLabels is the distinct hash-label count (hashed mode only).
	HashedLabels int
}

// Snapshot returns the current aggregate state.
func (a *Analyzer) Snapshot() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := Report{
		Events:        a.events,
		BytesTotal:    a.bytesTotal,
		QueriesByType: make(map[dns.Type]int, len(a.queriesByType)),
		QueriesByRole: make(map[simnet.Role]int, len(a.queriesByRole)),
		BytesByRole:   make(map[simnet.Role]int64, len(a.bytesByRole)),
		DLVQueries:    a.dlvQueries,
		DLVNoError:    a.dlvNoError,
		DLVNXDomain:   a.dlvNXDomain,
		HashedLabels:  len(a.hashedLabels),
	}
	for k, v := range a.queriesByType {
		r.QueriesByType[k] = v
	}
	for k, v := range a.queriesByRole {
		r.QueriesByRole[k] = v
	}
	for k, v := range a.bytesByRole {
		r.BytesByRole[k] = v
	}
	for _, c := range a.dlvDomains {
		switch c {
		case Case1:
			r.Case1Domains++
		case Case2:
			r.Case2Domains++
		}
	}
	if a.cfg.Hashed {
		r.DomainsObserved = len(a.hashedLabels)
	} else {
		r.DomainsObserved = len(a.dlvDomains)
	}
	return r
}

// LeakedDomains returns the distinct Case-2 domains observed, in sorted
// order; nil in hashed mode.
func (a *Analyzer) LeakedDomains() []dns.Name {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []dns.Name
	for d, c := range a.dlvDomains {
		if c == Case2 {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return out
}

// ClientProfile is the registry's reconstructed view of one client: every
// look-aside observation attributed to that client, as a domain multiset
// with its Case-1/Case-2 split (or a hash-label multiset in hashed mode).
// This is exactly what the adversary engine consumes.
type ClientProfile struct {
	// Client is the attributed stub endpoint.
	Client netip.Addr
	// Queries is the number of registry exchanges attributed to the client.
	Queries int
	// Domains counts observations per original domain; Cases classifies
	// each observed domain (Case-1 dominant). Empty in hashed mode.
	Domains map[dns.Name]int
	Cases   map[dns.Name]Case
	// Hashed counts observations per hash label (hashed mode only).
	Hashed map[string]int
}

// ClientProfiles returns a deep copy of the per-client registry view,
// sorted by client address so output is deterministic.
func (a *Analyzer) ClientProfiles() []ClientProfile {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ClientProfile, 0, len(a.byClient))
	for client, obs := range a.byClient {
		p := ClientProfile{
			Client:  client,
			Queries: obs.queries,
			Domains: make(map[dns.Name]int, len(obs.domains)),
			Cases:   make(map[dns.Name]Case, len(obs.cases)),
			Hashed:  make(map[string]int, len(obs.hashed)),
		}
		for d, n := range obs.domains {
			p.Domains[d] = n
		}
		for d, c := range obs.cases {
			p.Cases[d] = c
		}
		for l, n := range obs.hashed {
			p.Hashed[l] = n
		}
		out = append(out, p)
	}
	slices.SortFunc(out, func(x, y ClientProfile) int { return x.Client.Compare(y.Client) })
	return out
}

// ObservedDomains returns every distinct domain the registry saw,
// regardless of case, in sorted order; nil in hashed mode.
func (a *Analyzer) ObservedDomains() []dns.Name {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]dns.Name, 0, len(a.dlvDomains))
	for d := range a.dlvDomains {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// Merge folds another analyzer's observations into a, so a holds what one
// analyzer over both streams of traffic would: counters add, the domain
// and per-client case tables union with Case-1 dominance (noteCase, as
// Tap classifies), hash labels union. It locks o, then a; two analyzers must
// never merge into each other at the same time.
func (a *Analyzer) Merge(o *Analyzer) {
	if o == nil || o == a {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events += o.events
	a.bytesTotal += o.bytesTotal
	for k, v := range o.queriesByType {
		a.queriesByType[k] += v
	}
	for k, v := range o.queriesByRole {
		a.queriesByRole[k] += v
	}
	for k, v := range o.bytesByRole {
		a.bytesByRole[k] += v
	}
	a.dlvQueries += o.dlvQueries
	a.dlvNoError += o.dlvNoError
	a.dlvNXDomain += o.dlvNXDomain
	for d, c := range o.dlvDomains {
		noteCase(a.dlvDomains, d, c)
	}
	for l := range o.hashedLabels {
		a.hashedLabels[l] = true
	}
	for client, src := range o.byClient {
		dst, ok := a.byClient[client]
		if !ok {
			dst = newClientObs()
			a.byClient[client] = dst
		}
		dst.queries += src.queries
		for d, n := range src.domains {
			dst.domains[d] += n
		}
		for d, c := range src.cases {
			noteCase(dst.cases, d, c)
		}
		for l, n := range src.hashed {
			dst.hashed[l] += n
		}
	}
}
