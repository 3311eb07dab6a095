package resolver

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// Resilience configures the resolver's transport-failure handling. A nil
// Resilience on Config preserves the legacy behavior exactly (fixed
// two-round failover, no deadline, no TCP fallback, no breaker) — every
// pre-existing experiment is pinned byte-identical on that path. All
// durations are simulated time; backoff pauses advance the logical clock
// when the transport supports it, so resilient runs stay deterministic.
type Resilience struct {
	// MaxAttempts is the total transport-attempt budget for one query
	// (across all of a zone's servers and retries; default 3).
	MaxAttempts int

	// QueryDeadline bounds one top-level Resolve in simulated time: once
	// exceeded, further attempts fail with faults.ErrDeadlineExceeded and
	// the query servfails. Zero selects the 15s default; negative disables
	// the deadline.
	QueryDeadline time.Duration

	// TCPFallback retries truncated (TC-bit) responses over a reliable
	// stream when the transport implements simnet.TCPExchanger.
	TCPFallback bool

	// Breaker configures the circuit breaker on the look-aside path: after
	// Threshold consecutive registry failures the resolver stops querying
	// the registry for Cooldown of simulated time (degrading answers to
	// unvalidated, exactly as a registry outage already does), then probes.
	// Nil disables the breaker. This is the mitigation the fault experiment
	// measures: it caps the retry-amplified Case-2 leakage a dying registry
	// otherwise extracts from every resolution.
	Breaker *faults.BreakerConfig
}

// Retry backoff: attempt k waits min(backoffBase<<(k-1), backoffMax) plus a
// deterministic jitter of up to half that.
const (
	backoffBase = 200 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// withDefaults fills zero fields.
func (re Resilience) withDefaults() Resilience {
	if re.MaxAttempts <= 0 {
		re.MaxAttempts = 3
	}
	if re.QueryDeadline == 0 {
		re.QueryDeadline = 15 * time.Second
	}
	return re
}

// exchangeResilient is the retry loop used when Resilience is configured:
// a bounded attempt budget walked round-robin over the zone's servers, a
// per-query deadline, exponential backoff with deterministic jitter, and an
// early exit on permanently-classified errors.
func (r *Resolver) exchangeResilient(addrs []netip.Addr, qname dns.Name, qtype dns.Type) (*dns.Message, error) {
	var lastErr error
	for attempt := 0; attempt < r.resil.MaxAttempts; attempt++ {
		if err := r.checkDeadline(qname, qtype); err != nil {
			r.noteFailovers(attempt - 1)
			return nil, err
		}
		if attempt > 0 {
			r.pause(r.backoffFor(qname, attempt))
			r.stats.Retries++
		}
		resp, err := r.exchange(addrs[attempt%len(addrs)], qname, qtype)
		if err == nil {
			r.noteFailovers(attempt)
			return resp, nil
		}
		lastErr = err
		if !faults.IsTransient(err) {
			r.noteFailovers(attempt)
			return nil, lastErr
		}
	}
	r.noteFailovers(r.resil.MaxAttempts - 1)
	return nil, lastErr
}

// checkDeadline fails the in-flight query once its simulated-time budget is
// spent.
func (r *Resolver) checkDeadline(qname dns.Name, qtype dns.Type) error {
	if r.deadlineAt <= 0 || r.cfg.Clock.Now() < r.deadlineAt {
		return nil
	}
	return fmt.Errorf("resolver: %s/%s: %w", qname, qtype, faults.ErrDeadlineExceeded)
}

// backoffFor returns the pause before retry attempt k (k >= 1) of a query:
// exponential in k, capped, plus a jitter that is a pure function of
// (query name, attempt) so identical runs replay identical timelines while
// distinct queries still decorrelate.
func (r *Resolver) backoffFor(qname dns.Name, attempt int) time.Duration {
	d := backoffBase << (attempt - 1)
	if d <= 0 || d > backoffMax {
		d = backoffMax
	}
	if half := uint64(d / 2); half > 0 {
		h := hashString(string(qname)) ^ uint64(attempt)*0x9E3779B97F4A7C15
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		d += time.Duration(h % half)
	}
	return d
}

// pause advances the logical clock across a backoff wait when the transport
// exposes one (Network and Shard both do); transports without a clock are
// simply not waited on — the attempt budget still bounds the query.
func (r *Resolver) pause(d time.Duration) {
	if adv, ok := r.cfg.Net.(interface{ Advance(time.Duration) }); ok {
		adv.Advance(d)
	}
}

// noteFailovers adds n server transitions to the failover counter, guarding
// the exhaustion path against a negative adjustment when no attempt was
// ever made.
func (r *Resolver) noteFailovers(n int) {
	if n > 0 {
		r.stats.Failovers += n
	}
}

// tcpRetry re-asks a truncated answer over the transport's reliable stream.
func (r *Resolver) tcpRetry(tcp simnet.TCPExchanger, dst netip.Addr, qname dns.Name, qtype dns.Type) (*dns.Message, error) {
	r.stats.TCPFallbacks++
	q := r.scratchQuery(qname, qtype)
	resp, err := tcp.ExchangeTCP(r.cfg.Addr, dst, q)
	if err != nil {
		return nil, fmt.Errorf("resolver: tcp retry %s/%s with %s: %w", qname, qtype, dst, err)
	}
	return resp, nil
}
