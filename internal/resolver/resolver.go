// Package resolver implements the recursive DNS resolver under measurement:
// iterative resolution from the root hints, positive and negative caching
// (RFC 2308), DNSSEC chain-of-trust validation (RFC 4033–4035), and the
// RFC 5074 look-aside validator with aggressive negative caching of DLV
// NSEC spans — the machinery whose privacy behavior the paper measures.
//
// One engine models both BIND and Unbound: package resconf maps each
// distribution/installer environment onto a Config (trust anchors present
// or missing, look-aside enabled or not), reproducing the semantic
// differences the paper attributes to configuration rather than code.
package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// Resolution errors.
var (
	ErrServfail     = errors.New("resolver: servfail")
	ErrNoServers    = errors.New("resolver: no servers to query")
	ErrDepthLimit   = errors.New("resolver: resolution depth limit exceeded")
	ErrLoopDetected = errors.New("resolver: referral loop detected")
)

// Clock supplies simulation time for TTL arithmetic; *simnet.Network
// satisfies it.
type Clock interface {
	Now() time.Duration
}

// LookasidePolicy selects when the validator consults the DLV registry.
type LookasidePolicy int

// Look-aside policies.
const (
	// PolicyOnFailure is the RFC 5074 behavior BIND implements and the
	// paper calls "lax": the registry is consulted whenever a chain of
	// trust cannot be established — including for plainly unsigned
	// domains and when the trust anchor is missing entirely.
	PolicyOnFailure LookasidePolicy = iota + 1
	// PolicySignedOnly is the stricter hypothetical rule: consult the
	// registry only for zones that are themselves signed (publish a
	// DNSKEY) but cannot chain to an anchor — true islands of security.
	PolicySignedOnly
)

// String implements fmt.Stringer.
func (p LookasidePolicy) String() string {
	switch p {
	case PolicyOnFailure:
		return "on-failure"
	case PolicySignedOnly:
		return "signed-only"
	default:
		return "unknown"
	}
}

// RemedyMode selects the client half of the paper's DLV-aware DNS remedies.
type RemedyMode int

// Remedy modes.
const (
	// RemedyNone queries the registry unconditionally (baseline DLV).
	RemedyNone RemedyMode = iota + 1
	// RemedyTXT queries the domain's TXT record and consults the registry
	// only when it signals dlv=1 (§6.2.1, TXT method).
	RemedyTXT
	// RemedyZBit reads the reserved Z bit of the answer and consults the
	// registry only when it is set (§6.2.1, Z-bit method).
	RemedyZBit
)

// String implements fmt.Stringer.
func (m RemedyMode) String() string {
	switch m {
	case RemedyNone:
		return "none"
	case RemedyTXT:
		return "txt"
	case RemedyZBit:
		return "zbit"
	default:
		return "unknown"
	}
}

// LookasideConfig enables the DLV validator.
type LookasideConfig struct {
	// Zone is the registry zone, e.g. "dlv.isc.org.".
	Zone dns.Name
	// Anchor is the registry trust anchor in DS form (from bind.keys).
	// When nil the registry's records cannot be validated; BIND would
	// treat the look-aside chain as bogus, but queries are still sent —
	// which is precisely the leakage scenario.
	Anchor *dns.DSData
	// Policy selects when the registry is consulted.
	Policy LookasidePolicy
	// Hashed sends crypto_hash(domain) labels instead of domain labels
	// (the privacy-preserving DLV remedy, §6.2.2).
	Hashed bool
	// Remedy gates registry queries on authoritative signaling.
	Remedy RemedyMode
	// DisableAggressiveNegCache turns off NSEC-span reuse (the behavior a
	// resolver is forced into when the registry uses NSEC3, §7.3).
	DisableAggressiveNegCache bool
}

// Config configures a resolver instance.
type Config struct {
	// Addr is the resolver's own network address.
	Addr netip.Addr
	// RootHints are the root server addresses.
	RootHints []netip.Addr
	// Net carries queries; Clock supplies time (a *simnet.Network serves
	// as both).
	Net   simnet.Exchanger
	Clock Clock

	// ValidationEnabled mirrors BIND's dnssec-enable+dnssec-validation:
	// when false no DNSSEC processing happens at all.
	ValidationEnabled bool
	// RootAnchor is the root trust anchor in DS form; nil models the
	// misconfigurations of §4.3 (trust anchor not included), which turn
	// every validation indeterminate.
	RootAnchor *dns.DSData
	// Lookaside enables the DLV validator; nil disables it.
	Lookaside *LookasideConfig

	// NSCompletionPercent is the percentage of newly learned delegations
	// for which the resolver issues an apex NS query (BIND's authoritative
	// NS completion); PTRSamplePercent likewise samples reverse lookups of
	// newly contacted server addresses. Both default to 0.
	NSCompletionPercent int
	PTRSamplePercent    int

	// MaxDepth bounds nested resolutions (NS-address chasing); default 8.
	MaxDepth int

	// QNameMinimization walks the hierarchy per RFC 7816: each ancestor
	// server is asked only for the next label (as an NS query) instead of
	// the full name. The paper's threat model (§3) notes minimization
	// narrows what root and TLD servers observe; the MinimizedExposure
	// experiment quantifies it.
	QNameMinimization bool

	// PaddingBlock pads stub-facing responses to a multiple of this many
	// octets (RFC 7830/8467), collapsing the response-size side channel
	// the paper's related work (§8.2) discusses. 0 disables padding.
	PaddingBlock int

	// VerifyCache memoizes RRSIG public-key verification. Nil gives the
	// resolver a private cache; sharded audits pass one shared cache so
	// every worker benefits from every other worker's verifications.
	VerifyCache *dnssec.VerifyCache

	// Limits bounds the per-resolver caches; zero fields take defaults
	// that match the historical unbounded-in-practice behavior. Ignored
	// when Cache is set: a shared Cache carries its own bounds.
	Limits CacheLimits

	// Cache is the resolver's state. Nil gives the resolver a private one
	// bounded by Limits; a serving pool passes one NewCache to every
	// instance so they present one resolver's caches — one aggressive
	// negative cache above all — to the servers they query.
	Cache *Cache

	// Infra is a sealed Cache of infrastructure state (root/TLD/registry
	// delegations, validated zone outcomes, NSEC spans), warmed before a
	// worker pool starts. The resolver reads it behind its own Cache and
	// never writes it. Nil keeps the resolver fully self-contained (the
	// legacy behavior).
	Infra *Cache

	// Resilience enables the resilient transport core (attempt budgets,
	// backoff, per-query deadline, TCP fallback, DLV circuit breaker). Nil
	// keeps the legacy fixed two-round failover exactly.
	Resilience *Resilience
}

// Resolver is a caching, validating, DLV-capable recursive resolver.
type Resolver struct {
	cfg    Config
	cache  *Cache
	vcache *dnssec.VerifyCache
	infra  *Cache

	// seen is the shard-clock reading last added to the cache's process
	// clock (see nowSeconds).
	seen time.Duration

	nextID uint16

	// resil is cfg.Resilience with defaults applied (nil = legacy
	// transport behavior); dlvBreaker is the look-aside circuit breaker
	// when one is configured; deadlineAt is the in-flight top-level
	// query's simulated-time budget (0 = none).
	resil      *Resilience
	dlvBreaker *faults.Breaker
	deadlineAt time.Duration

	// qscratch is the reusable iterative-query message, rebuilt in place
	// for every exchange. Safe because Exchange is synchronous and the
	// simulated network's contract is that handlers treat queries as
	// read-only and never retain them (the wire fast path re-derives the
	// server-side question from the encoded bytes); the message is dead
	// once Exchange returns. Removes three allocations per exchange.
	qscratch  dns.Message
	qscratchQ [1]dns.Question
	qscratchE dns.EDNS

	// addrBufs is a freelist of candidate-address buffers for serverAddrs.
	// A freelist rather than a single scratch because address lookup can
	// recurse — glueless server resolution and PTR sampling re-enter the
	// iterator while an outer failover loop still holds its candidates.
	addrBufs [][]netip.Addr

	// counters for introspection and tests
	stats Stats
}

// Stats counts resolver-internal activity.
type Stats struct {
	// Resolutions is the number of top-level Resolve calls.
	Resolutions int
	// DLVQueries is the number of queries sent to the look-aside registry.
	DLVQueries int
	// DLVSuppressed counts look-aside queries avoided by aggressive
	// negative caching.
	DLVSuppressed int
	// DLVSkippedByRemedy counts look-aside consultations avoided by TXT or
	// Z-bit signaling.
	DLVSkippedByRemedy int
	// DLVFailures counts look-aside queries that failed to complete
	// (registry outages); each degrades to an unvalidated answer.
	DLVFailures int
	// Failovers counts exchanges retried on an alternate name server
	// after a transport failure.
	Failovers int
	// CacheHits counts answers served from cache.
	CacheHits int
	// Retries counts extra transport attempts made by the resilient core
	// beyond each query's first (0 on the legacy path).
	Retries int
	// TCPFallbacks counts truncated answers re-asked over TCP.
	TCPFallbacks int
	// DeadlineExceeded counts top-level resolutions abandoned because the
	// per-query simulated-time budget ran out.
	DeadlineExceeded int
	// BreakerSkips counts look-aside consultations shed by an open DLV
	// circuit breaker (each is a registry query — a leak — that was never
	// sent); BreakerOpens counts circuit-open transitions.
	BreakerSkips int
	BreakerOpens int
	// InfraHits counts lookups served by the shared infrastructure cache
	// (delegations and zone outcomes read there on a miss in the
	// resolver's own cache, nothing copied); InfraMisses counts
	// lookups that fell through to a live walk. Both stay 0 without
	// Config.Infra; their ratio is the serving tier's infra-cache hit rate.
	InfraHits   int
	InfraMisses int
}

// Fields enumerates the counters in declaration order. It is the one list
// of them: Plus loops over it, and the sweep checkpoint writes them in this
// order, so a new counter is appended here and to the struct, never
// inserted (TestStatsFieldsComplete holds the list to the struct).
func (s *Stats) Fields() []*int {
	return []*int{
		&s.Resolutions, &s.DLVQueries, &s.DLVSuppressed, &s.DLVSkippedByRemedy,
		&s.DLVFailures, &s.Failovers, &s.CacheHits, &s.Retries,
		&s.TCPFallbacks, &s.DeadlineExceeded, &s.BreakerSkips, &s.BreakerOpens,
		&s.InfraHits, &s.InfraMisses,
	}
}

// Plus returns the field-wise sum of two Stats; sharded audits use it to
// merge per-worker resolver counters.
func (s Stats) Plus(o Stats) Stats {
	sum := s.Fields()
	for i, v := range o.Fields() {
		*sum[i] += *v
	}
	return s
}

// New creates a resolver.
func New(cfg Config) (*Resolver, error) {
	if cfg.Net == nil || cfg.Clock == nil {
		return nil, errors.New("resolver: network and clock are required")
	}
	if len(cfg.RootHints) == 0 {
		return nil, errors.New("resolver: root hints are required")
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 8
	}
	if cfg.Lookaside != nil {
		if cfg.Lookaside.Zone == "" {
			return nil, errors.New("resolver: lookaside without zone")
		}
		if cfg.Lookaside.Policy == 0 {
			cfg.Lookaside.Policy = PolicyOnFailure
		}
		if cfg.Lookaside.Remedy == 0 {
			cfg.Lookaside.Remedy = RemedyNone
		}
	}
	vcache := cfg.VerifyCache
	if vcache == nil {
		vcache = dnssec.NewVerifyCache()
	}
	start := cfg.Clock.Now()
	c := cfg.Cache
	if c == nil {
		c = NewCache(cfg.Limits, start)
	}
	r := &Resolver{cfg: cfg, cache: c, vcache: vcache, infra: cfg.Infra, seen: start}
	if cfg.Resilience != nil {
		res := cfg.Resilience.withDefaults()
		r.resil = &res
		if res.Breaker != nil {
			r.dlvBreaker = faults.NewBreaker(*res.Breaker)
		}
	}
	return r, nil
}

// Stats returns a copy of the resolver's counters.
func (r *Resolver) Stats() Stats { return r.stats }

// nowSeconds returns the cache's process clock in whole seconds for TTL
// arithmetic, first adding how far this resolver's own clock has advanced
// since it last looked. Elapsed, deadlines and the breaker read the
// resolver's own clock instead.
func (r *Resolver) nowSeconds() uint32 {
	t := r.cfg.Clock.Now()
	d := t - r.seen
	r.seen = t
	return r.cache.advance(d)
}

// id returns a fresh query ID.
func (r *Resolver) id() uint16 {
	r.nextID++
	return r.nextID
}

// Result is the outcome of a recursive resolution as seen by the stub.
type Result struct {
	// RCode is the final response code (NOERROR, NXDOMAIN, SERVFAIL).
	RCode dns.RCode
	// Answer holds the answer records (without RRSIGs).
	Answer []dns.RR
	// Status is the DNSSEC validation status (0 when validation is off).
	Status ValidationStatus
	// UsedDLV reports whether the look-aside registry contributed the
	// trust anchor that validated the answer.
	UsedDLV bool
	// Elapsed is the simulated wall time the resolution took.
	Elapsed time.Duration
}

// Resolve answers (qname, qtype) recursively, performing validation and
// look-aside exactly as configured.
func (r *Resolver) Resolve(qname dns.Name, qtype dns.Type) (*Result, error) {
	start := r.cfg.Clock.Now()
	r.stats.Resolutions++
	if r.resil != nil && r.resil.QueryDeadline > 0 {
		r.deadlineAt = start + r.resil.QueryDeadline
		defer func() { r.deadlineAt = 0 }()
	}
	out, err := r.resolve(qname, qtype, 0)
	if err != nil {
		if errors.Is(err, faults.ErrDeadlineExceeded) {
			r.stats.DeadlineExceeded++
		}
		return nil, err
	}
	out.Elapsed = r.cfg.Clock.Now() - start
	return out, nil
}

// exchange sends one query and returns the decoded response. With the
// resilient core's TCP fallback enabled, a truncated (TC-bit) response is
// transparently re-asked over the transport's reliable stream.
func (r *Resolver) exchange(dst netip.Addr, qname dns.Name, qtype dns.Type) (*dns.Message, error) {
	q := r.scratchQuery(qname, qtype)
	resp, err := r.cfg.Net.Exchange(r.cfg.Addr, dst, q)
	if err != nil {
		return nil, fmt.Errorf("resolver: exchanging %s/%s with %s: %w", qname, qtype, dst, err)
	}
	if resp.Header.TC && r.resil != nil && r.resil.TCPFallback {
		if tcp, ok := r.cfg.Net.(simnet.TCPExchanger); ok {
			return r.tcpRetry(tcp, dst, qname, qtype)
		}
	}
	return resp, nil
}

// scratchQuery rebuilds the resolver's reusable iterative-query message
// (RD clear, EDNS+DO per the validation setting).
func (r *Resolver) scratchQuery(qname dns.Name, qtype dns.Type) *dns.Message {
	q := &r.qscratch
	q.Header = dns.Header{ID: r.id(), Opcode: dns.OpcodeQuery}
	r.qscratchQ[0] = dns.Question{Name: qname, Type: qtype, Class: dns.ClassIN}
	q.Question = r.qscratchQ[:]
	q.Answer, q.Authority, q.Additional = nil, nil, nil
	if r.cfg.ValidationEnabled {
		r.qscratchE = dns.EDNS{UDPSize: dns.DefaultUDPSize, DO: true}
		q.EDNS = &r.qscratchE
	} else {
		q.EDNS = nil
	}
	return q
}
