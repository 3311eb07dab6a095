package resolver

import (
	"errors"
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
)

// ValidationStatus re-exports the RFC 4033 validation outcome used in
// results.
type ValidationStatus = dnssec.Status

// Validation statuses, re-exported for callers of this package.
const (
	StatusSecure        = dnssec.StatusSecure
	StatusInsecure      = dnssec.StatusInsecure
	StatusBogus         = dnssec.StatusBogus
	StatusIndeterminate = dnssec.StatusIndeterminate
)

// validateResponse establishes the DNSSEC status of an iterated response
// and, when the chain cannot be built, runs the RFC 5074 look-aside
// procedure. It mutates core.status and core.usedDLV.
func (r *Resolver) validateResponse(core *coreResult, qname dns.Name, depth int) error {
	outcome, err := r.validateZone(core.zone, depth)
	if err != nil {
		return err
	}
	signed := outcome.signed || hasRRSIG(core.answer) || hasRRSIG(core.authority)

	if outcome.status == StatusSecure {
		// A zone anchored through the registry earlier — by this resolver
		// or by another sharing its cache — still owes its chain to it.
		core.status = r.verifyAnswer(core, outcome)
		core.usedDLV = outcome.viaDLV && core.status == StatusSecure
		return nil
	}

	core.status = outcome.status
	if outcome.status == StatusBogus || r.cfg.Lookaside == nil {
		return nil
	}
	// Chain could not be built (insecure or indeterminate): consult the
	// look-aside registry per policy and remedy gating.
	if r.cfg.Lookaside.Policy == PolicySignedOnly && !signed {
		return nil
	}
	if !r.remedyAllows(core, qname, depth) {
		r.stats.DLVSkippedByRemedy++
		return nil
	}
	rec, err := r.lookasideWalk(lookasideStart(core, qname), depth)
	if err != nil {
		return err
	}
	if rec == nil {
		return nil // no deposit: status stays as the on-path outcome
	}
	// A deposited DLV record acts as a DS for the zone: fetch and match
	// the zone's DNSKEYs, then verify the answer.
	viaDLV, err := r.anchorZoneWithDS(core.zone, rec.AsDS(), depth)
	if err != nil {
		return err
	}
	if viaDLV == nil {
		core.status = StatusBogus // deposit exists but does not match the keys
		return nil
	}
	core.status = r.verifyAnswer(core, viaDLV)
	if core.status == StatusSecure {
		core.usedDLV = true
		viaDLV.viaDLV = true
		r.cache.storeZoneStatus(core.zone, viaDLV)
	}
	return nil
}

// lookasideStart picks the name whose look-aside records are searched: the
// answering zone apex for positive answers, the query name for denials (the
// paper's "appending the DLV domain after the queried domain").
func lookasideStart(core *coreResult, qname dns.Name) dns.Name {
	if len(core.answer) > 0 && !core.zone.IsRoot() {
		return core.zone
	}
	return qname
}

// verifyAnswer checks the answer RRset signatures against a zone outcome
// holding validated keys.
func (r *Resolver) verifyAnswer(core *coreResult, outcome *zoneOutcome) ValidationStatus {
	if len(core.answer) == 0 {
		// Negative response from a secure zone: we accept the denial as
		// secure (full NSEC denial-proof checking is out of scope; the
		// zones in the simulation always attach correct proofs).
		return StatusSecure
	}
	now := r.nowSeconds()
	sets := dnssec.GroupRRSets(core.answer)
	for key, rrset := range sets {
		if key.Type == dns.TypeRRSIG {
			continue
		}
		sig, ok := findSig(core.answer, key.Name, key.Type)
		if !ok {
			return StatusBogus
		}
		if !r.verifyWithKeys(outcome.keys, sig, rrset, now) {
			return StatusBogus
		}
	}
	return StatusSecure
}

// validateZone establishes (and caches) the chain-of-trust status of a
// zone, issuing DS and DNSKEY queries exactly as a validating resolver
// does.
func (r *Resolver) validateZone(zoneName dns.Name, depth int) (*zoneOutcome, error) {
	if out, ok := r.cachedOutcome(zoneName); ok {
		return out, nil
	}
	if depth > r.cfg.MaxDepth {
		return nil, fmt.Errorf("%w: validating %s", ErrDepthLimit, zoneName)
	}

	var out *zoneOutcome
	if zoneName.IsRoot() {
		var err error
		out, err = r.validateRoot(depth)
		if err != nil {
			return nil, err
		}
	} else {
		parent := r.parentZone(zoneName)
		parentOut, err := r.validateZone(parent, depth+1)
		if err != nil {
			return nil, err
		}
		switch parentOut.status {
		case StatusSecure:
			out, err = r.validateDelegation(zoneName, parent, depth)
			if err != nil {
				return nil, err
			}
		case StatusInsecure, StatusIndeterminate:
			// No validated parent: the child cannot chain on-path.
			out = &zoneOutcome{status: parentOut.status}
		default:
			out = &zoneOutcome{status: StatusBogus}
		}
	}
	r.cache.storeZoneStatus(zoneName, out)
	return out, nil
}

// validateRoot checks the root DNSKEY RRset against the configured trust
// anchor.
func (r *Resolver) validateRoot(depth int) (*zoneOutcome, error) {
	keys, sig, err := r.fetchDNSKEYs(dns.Root, depth)
	if err != nil {
		return nil, err
	}
	out := &zoneOutcome{signed: len(keys) > 0, keys: keys}
	switch {
	case r.cfg.RootAnchor == nil:
		// The §4.3 misconfiguration: no trust anchor installed. The
		// resolver cannot determine whether anything should be signed.
		out.status = StatusIndeterminate
	case r.keysMatchDS(dns.Root, keys, sig, r.cfg.RootAnchor):
		out.status = StatusSecure
	default:
		out.status = StatusBogus
	}
	return out, nil
}

// validateDelegation validates child under a secure parent: query DS at the
// parent, then DNSKEY at the child.
func (r *Resolver) validateDelegation(child, parent dns.Name, depth int) (*zoneOutcome, error) {
	dsSet, denied, err := r.fetchDS(child, parent, depth)
	if err != nil {
		return nil, err
	}
	if denied || len(dsSet) == 0 {
		// Authenticated unsigned delegation: the island-of-security
		// precondition when the child itself is signed.
		return &zoneOutcome{status: StatusInsecure}, nil
	}
	keys, sig, err := r.fetchDNSKEYs(child, depth)
	if err != nil {
		return nil, err
	}
	out := &zoneOutcome{signed: len(keys) > 0, keys: keys}
	for _, ds := range dsSet {
		if r.keysMatchDS(child, keys, sig, ds) {
			out.status = StatusSecure
			return out, nil
		}
	}
	out.status = StatusBogus
	return out, nil
}

// anchorZoneWithDS attempts to validate a zone's keys against an
// out-of-band DS (a DLV deposit). It returns nil when the keys don't match.
func (r *Resolver) anchorZoneWithDS(zoneName dns.Name, ds *dns.DSData, depth int) (*zoneOutcome, error) {
	keys, sig, err := r.fetchDNSKEYs(zoneName, depth)
	if err != nil {
		return nil, err
	}
	if !r.keysMatchDS(zoneName, keys, sig, ds) {
		return nil, nil
	}
	return &zoneOutcome{status: StatusSecure, signed: true, keys: keys}, nil
}

// keysMatchDS reports whether some key matches the DS and the DNSKEY RRset
// is self-signed by that key.
func (r *Resolver) keysMatchDS(owner dns.Name, keys []*dns.DNSKEYData, sigRR dns.RR, ds *dns.DSData) bool {
	if ds == nil || len(keys) == 0 {
		return false
	}
	now := r.nowSeconds()
	rrset := keysToRRs(owner, keys)
	for _, k := range keys {
		if !dnssec.MatchDS(ds, owner, k) {
			continue
		}
		if sigRR.Data == nil {
			return false
		}
		if r.vcache.VerifyRRSet(k, sigRR, rrset, now) == nil {
			return true
		}
	}
	return false
}

// fetchDNSKEYs queries the DNSKEY RRset at a zone apex (cached via the
// positive cache) and returns the keys plus their covering RRSIG.
func (r *Resolver) fetchDNSKEYs(zoneName dns.Name, depth int) ([]*dns.DNSKEYData, dns.RR, error) {
	core, err := r.queryAt(zoneName, zoneName, dns.TypeDNSKEY, depth)
	if err != nil {
		return nil, dns.RR{}, err
	}
	var keys []*dns.DNSKEYData
	for _, rr := range core.answer {
		if k, ok := rr.Data.(*dns.DNSKEYData); ok {
			keys = append(keys, k)
		}
	}
	sig, _ := findSig(core.answer, zoneName, dns.TypeDNSKEY)
	return keys, sig, nil
}

// fetchDS queries the child's DS RRset at the parent zone.
func (r *Resolver) fetchDS(child, parent dns.Name, depth int) (ds []*dns.DSData, denied bool, err error) {
	core, err := r.queryAt(parent, child, dns.TypeDS, depth)
	if err != nil {
		return nil, false, err
	}
	for _, rr := range core.answer {
		if d, ok := rr.Data.(*dns.DSData); ok {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return nil, true, nil
	}
	return ds, false, nil
}

// queryAt sends (qname, qtype) directly to the servers of a zone, with
// positive/negative caching. It is used for DS/DNSKEY/NS plumbing where the
// authoritative zone is already known.
func (r *Resolver) queryAt(zoneName, qname dns.Name, qtype dns.Type, depth int) (*coreResult, error) {
	now := r.nowSeconds()
	key := dns.Key{Name: qname, Type: qtype, Class: dns.ClassIN}
	if hit, ok := r.cache.answer(key, now); ok {
		r.stats.CacheHits++
		return hit, nil
	}
	var core *coreResult
	var resp *dns.Message
	_, err := r.serverAddr(zoneName, depth)
	if err == nil {
		resp, err = r.exchangeWithZone(zoneName, nil, qname, qtype, depth)
	}
	switch {
	case err == nil:
		r.harvestSpans(resp)
		core = &coreResult{
			rcode: resp.Header.RCode, answer: resp.Answer,
			authority: resp.Authority, zone: zoneName, zbit: resp.Header.Z,
		}
	case errors.Is(err, ErrNoServers):
		// The zone has not been visited yet (e.g. the look-aside registry
		// on first use), or another resolver sharing the cache evicted its
		// cut since: learn it through a full referral walk.
		core, err = r.iterate(qname, qtype, depth)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if core.rcode == dns.RCodeNoError && len(core.answer) > 0 {
		r.cache.storePositive(key, posEntry{rrs: core.answer, zone: zoneName, expires: now + minTTL(core.answer)}, now)
	} else {
		r.cache.storeNegative(key, negEntry{rcode: core.rcode, zone: zoneName, expires: now + negativeTTLFrom(core.authority)}, now)
	}
	return core, nil
}

// parentZone returns the enclosing zone of a zone, preferring the referral
// topology learned during iteration over plain name arithmetic. Its
// infrastructure-cache lookup is not counted as an infra hit or miss.
func (r *Resolver) parentZone(zoneName dns.Name) dns.Name {
	if d, ok := r.cache.delegation(zoneName); ok {
		return d.parent
	}
	if r.infra != nil {
		if d, ok := r.infra.delegation(zoneName); ok {
			return d.parent
		}
	}
	return zoneName.Parent()
}

// verifyWithKeys tries to verify an RRset signature against any of a set of
// keys, routing the crypto through the resolver's verification cache.
func (r *Resolver) verifyWithKeys(keys []*dns.DNSKEYData, sig dns.RR, rrset []dns.RR, now uint32) bool {
	for _, k := range keys {
		if r.vcache.VerifyRRSet(k, sig, rrset, now) == nil {
			return true
		}
	}
	return false
}

// keysToRRs rebuilds the DNSKEY RRset records for signature verification.
func keysToRRs(owner dns.Name, keys []*dns.DNSKEYData) []dns.RR {
	rrs := make([]dns.RR, len(keys))
	for i, k := range keys {
		rrs[i] = dns.RR{Name: owner, Type: dns.TypeDNSKEY, Class: dns.ClassIN, TTL: 3600, Data: k}
	}
	return rrs
}

// hasRRSIG reports whether a section carries any signature (the zone is
// signed).
func hasRRSIG(rrs []dns.RR) bool {
	for _, rr := range rrs {
		if rr.Type == dns.TypeRRSIG {
			return true
		}
	}
	return false
}
