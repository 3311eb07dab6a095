package resolver

import (
	"errors"
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
)

// remedyAllows applies the client half of the DLV-aware DNS remedies: with
// RemedyTXT the resolver asks the domain's authoritative server for the
// dlv= TXT signal; with RemedyZBit it reads the answer's Z header bit. With
// RemedyNone the registry is always consulted (the behavior the paper
// measures as leakage).
func (r *Resolver) remedyAllows(core *coreResult, qname dns.Name, depth int) bool {
	if r.cfg.Lookaside == nil {
		return false
	}
	switch r.cfg.Lookaside.Remedy {
	case RemedyTXT:
		target := lookasideStart(core, qname)
		txtCore, err := r.resolveInternal(target, dns.TypeTXT, depth+1)
		if err != nil {
			return true // signaling unavailable: fall back to consulting
		}
		if hasDLV, ok := txtSignal(txtCore.answer); ok {
			return hasDLV
		}
		return true // domain does not publish the signal: consult
	case RemedyZBit:
		return core.zbit
	default:
		return true
	}
}

// txtSignal returns the remedy bit of the first TXT record in answer that
// carries a dlv= signal; ok is false when none does.
func txtSignal(answer []dns.RR) (hasDLV, ok bool) {
	for _, rr := range answer {
		if txt, isTXT := rr.Data.(*dns.TXTData); isTXT {
			if hasDLV, ok := dlv.ParseTXTSignal(txt.Strings); ok {
				return hasDLV, true
			}
		}
	}
	return false, false
}

// lookasideWalk implements the RFC 5074 search: query
// <name>.<registry-zone> for DLV, and on a miss strip the leading label and
// try again, until a record is found or no enclosing name remains. Before
// each step the aggressive negative cache of validated NSEC spans is
// consulted (§5 of the RFC; the mechanism behind the paper's Figs. 8/9).
//
// In hashed mode (the privacy-preserving remedy) a single query for
// crypto_hash(name) is sent instead — label stripping is impossible and
// unnecessary.
func (r *Resolver) lookasideWalk(start dns.Name, depth int) (*dns.DLVData, error) {
	lc := r.cfg.Lookaside
	if err := r.validateRegistry(depth); err != nil {
		return nil, err
	}

	if lc.Hashed {
		lookName, err := dlv.LookasideName(start, lc.Zone, true)
		if err != nil {
			return nil, fmt.Errorf("resolver: hashed lookaside name for %s: %w", start, err)
		}
		rec, _, err := r.lookasideQuery(lookName, depth)
		return rec, err
	}

	for name := start; !name.IsRoot(); name = name.Parent() {
		lookName, err := dlv.LookasideName(name, lc.Zone, false)
		if err != nil {
			return nil, fmt.Errorf("resolver: lookaside name for %s: %w", name, err)
		}
		if !lc.DisableAggressiveNegCache &&
			r.spanCovers(lc.Zone, lookName, r.nowSeconds()) {
			// A validated NSEC span already proves nonexistence: the query
			// is suppressed (this is the negative-caching effect the paper
			// observes as sub-linear leakage growth).
			r.stats.DLVSuppressed++
			continue
		}
		rec, found, err := r.lookasideQuery(lookName, depth)
		if err != nil {
			return nil, err
		}
		if found {
			if name == start {
				return rec, nil
			}
			// An enclosing record (for an ancestor zone) cannot anchor the
			// target zone directly; the walk stops here per RFC 5074 §4.1.
			return nil, nil
		}
	}
	return nil, nil
}

// lookasideQuery sends one DLV query and validates any returned record
// against the registry keys. A failed exchange (registry outage — a
// documented DLV operational hazard, §8.4) degrades to "no record found":
// the answer is still served, it just cannot validate through look-aside.
//
// When a circuit breaker is configured, it wraps the registry consultation:
// consecutive failures open the circuit and subsequent consultations are
// shed without sending anything — the same unvalidated degradation, but
// with the retry-amplified leakage (and latency) of hammering a dead
// registry capped. Byzantine answers that transport successfully (bogus
// signatures) do not trip it; SERVFAIL storms and outages do.
func (r *Resolver) lookasideQuery(lookName dns.Name, depth int) (*dns.DLVData, bool, error) {
	lc := r.cfg.Lookaside
	if r.dlvBreaker != nil && !r.dlvBreaker.Allow(r.cfg.Clock.Now()) {
		r.stats.BreakerSkips++
		return nil, false, nil
	}
	core, err := r.resolveInternal(lookName, dns.TypeDLV, depth+1)
	if err != nil {
		if errors.Is(err, faults.ErrDeadlineExceeded) {
			// The query's time budget is spent: abort the walk entirely.
			return nil, false, err
		}
		r.stats.DLVFailures++
		if r.dlvBreaker != nil && r.dlvBreaker.Failure(r.cfg.Clock.Now()) {
			r.stats.BreakerOpens++
		}
		return nil, false, nil
	}
	if r.dlvBreaker != nil {
		r.dlvBreaker.Success()
	}
	if !core.fromCache {
		r.stats.DLVQueries++
	}
	if core.rcode != dns.RCodeNoError || len(core.answer) == 0 {
		return nil, false, nil
	}
	reg, _ := r.cachedOutcome(lc.Zone)
	now := r.nowSeconds()
	var rrset []dns.RR
	for _, rr := range core.answer {
		if rr.Type == dns.TypeDLV && rr.Name == lookName {
			rrset = append(rrset, rr)
		}
	}
	if len(rrset) == 0 {
		return nil, false, nil
	}
	if reg.status == StatusSecure {
		sig, ok := findSig(core.answer, lookName, dns.TypeDLV)
		if !ok || !r.verifyWithKeys(reg.keys, sig, rrset, now) {
			// Unverifiable deposit: treated as absent (bogus look-aside).
			return nil, false, nil
		}
	} else {
		// Registry keys unvalidated (no DLV trust anchor configured): the
		// record cannot be trusted, but the query was already sent — the
		// leak happened regardless.
		return nil, false, nil
	}
	return rrset[0].Data.(*dns.DLVData), true, nil
}

// validateRegistry validates the look-aside registry zone's DNSKEYs against
// the configured DLV trust anchor, once, caching the outcome.
func (r *Resolver) validateRegistry(depth int) error {
	lc := r.cfg.Lookaside
	if _, ok := r.cachedOutcome(lc.Zone); ok {
		return nil
	}
	out, err := r.keyOutcome(lc.Zone, anchorSet(lc.Anchor), depth)
	if err != nil {
		// The registry may be unreachable (outages were a known DLV
		// failure mode); record an indeterminate outcome so the resolver
		// keeps functioning.
		out = zoneOutcome{status: StatusIndeterminate}
	}
	r.cache.storeZoneStatus(lc.Zone, out)
	return nil
}
