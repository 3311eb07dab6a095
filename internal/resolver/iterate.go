package resolver

import (
	"fmt"
	"hash/fnv"
	"net/netip"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
)

// coreResult is the raw outcome of iterative resolution, before validation.
type coreResult struct {
	rcode     dns.RCode
	answer    []dns.RR // as received, including RRSIGs
	authority []dns.RR
	zone      dns.Name // authoritative zone that produced the final response
	zbit      bool
	fromCache bool
	status    ValidationStatus // populated on cache hits
	usedDLV   bool
}

// maxReferralHops bounds one iteration walk.
const maxReferralHops = 24

// defaultPositiveTTL is used when an answer has no records to take a TTL
// from.
const defaultPositiveTTL uint32 = 300

// defaultNegativeTTL is used when a negative answer carries no SOA.
const defaultNegativeTTL uint32 = 900

// resolve is the internal entry point: full resolution with validation and
// look-aside (used for stub queries).
func (r *Resolver) resolve(qname dns.Name, qtype dns.Type, depth int) (*Result, error) {
	core, err := r.resolveCore(qname, qtype, depth, false)
	if err != nil {
		return nil, err
	}
	return stubResult(core), nil
}

// stubResult is what the stub sees of a validated outcome.
func stubResult(core *coreResult) *Result {
	res := &Result{
		RCode:   core.rcode,
		Answer:  stripSigs(core.answer),
		Status:  core.status,
		UsedDLV: core.usedDLV,
	}
	if core.status.Servfails() {
		res.RCode = dns.RCodeServFail
		res.Answer = nil
	}
	return res
}

// resolveInternal performs plumbing resolutions (NS addresses, PTR, TXT
// signals, DLV queries): no validation, no look-aside recursion.
func (r *Resolver) resolveInternal(qname dns.Name, qtype dns.Type, depth int) (*coreResult, error) {
	return r.resolveCore(qname, qtype, depth, true)
}

// resolveCore checks the caches, walks referrals, validates (unless
// internal), and writes the caches back.
func (r *Resolver) resolveCore(qname dns.Name, qtype dns.Type, depth int, internal bool) (*coreResult, error) {
	if depth > r.cfg.MaxDepth {
		return nil, fmt.Errorf("%w: %s/%s", ErrDepthLimit, qname, qtype)
	}
	now := r.nowSeconds()
	key := dns.Key{Name: qname, Type: qtype, Class: dns.ClassIN}
	if hit, ok := r.cache.answer(key, now); ok {
		r.stats.CacheHits++
		return hit, nil
	}

	core, err := r.iterate(qname, qtype, depth)
	if err != nil {
		return nil, err
	}

	if !internal && r.cfg.ValidationEnabled {
		if err := r.validateResponse(core, qname, depth); err != nil {
			return nil, err
		}
	}

	// Write back caches with the final (validated) state. The caches are
	// bounded: million-domain sweeps would otherwise hold every answer
	// ever seen, which no real resolver does.
	now = r.nowSeconds()
	if core.rcode == dns.RCodeNoError && len(core.answer) > 0 {
		r.cache.storePositive(key, posEntry{
			rrs: core.answer, zone: core.zone, status: core.status,
			usedDLV: core.usedDLV, zbit: core.zbit,
			expires: now + minTTL(core.answer),
		}, now)
	} else {
		r.cache.storeNegative(key, negEntry{
			rcode: core.rcode, zone: core.zone,
			expires: now + negativeTTLFrom(core.authority),
		}, now)
	}
	return core, nil
}

// iterate walks referrals from the closest cached delegation to the
// authoritative answer. With QNameMinimization, each step exposes only the
// next label of the query name (RFC 7816), probing with NS queries until
// the authoritative zone is reached.
func (r *Resolver) iterate(qname dns.Name, qtype dns.Type, depth int) (*coreResult, error) {
	// A DS RRset is the parent's: start above the cut it names, or a cached
	// cut would send the question to the child, which denies it.
	from := qname
	if qtype == dns.TypeDS && !qname.IsRoot() {
		from = qname.Parent()
	}
	zone, cut := r.closestDelegation(from)
	// minLabels tracks how many labels beyond the current zone are being
	// disclosed in minimized mode.
	minLabels := 1
	for hops := 0; hops < maxReferralHops; hops++ {
		sendName, sendType := qname, qtype
		minimized := false
		if r.cfg.QNameMinimization {
			if probe, ok := minimizedTarget(qname, zone, minLabels); ok {
				sendName, sendType = probe, dns.TypeNS
				minimized = true
			}
		}
		resp, err := r.exchangeWithZone(zone, cut, sendName, sendType, depth)
		if err != nil {
			return nil, err
		}
		r.harvestSpans(resp)

		switch {
		case resp.Header.RCode == dns.RCodeNXDomain:
			// For a minimized probe, the ancestor's nonexistence implies
			// the full name's (no empty non-terminals in the simulation).
			return &coreResult{
				rcode: dns.RCodeNXDomain, authority: resp.Authority,
				zone: soaOwner(resp.Authority, zone), zbit: resp.Header.Z,
			}, nil

		case len(resp.Answer) > 0 && !minimized:
			core := &coreResult{
				rcode: dns.RCodeNoError, answer: resp.Answer,
				authority: resp.Authority, zone: zone, zbit: resp.Header.Z,
			}
			return r.chaseCNAME(core, qname, qtype, depth)

		case resp.Header.RCode == dns.RCodeNoError && !resp.Header.AA:
			// Referral: find the child cut in the authority section.
			child, ok := referralChild(resp.Authority, zone)
			if !ok {
				return nil, fmt.Errorf("%w: empty referral from %s for %s", ErrServfail, zone, qname)
			}
			cut = r.cacheDelegation(child, zone, resp)
			r.maybeCompleteNS(child, depth)
			zone = child
			minLabels = 1

		case resp.Header.RCode == dns.RCodeNoError && resp.Header.AA:
			if minimized {
				// The probed ancestor exists inside this zone without a
				// cut: disclose one more label on the next round.
				minLabels++
				continue
			}
			// NODATA.
			return &coreResult{
				rcode: dns.RCodeNoError, authority: resp.Authority,
				zone: zone, zbit: resp.Header.Z,
			}, nil

		default:
			return nil, fmt.Errorf("%w: %s from %s for %s/%s",
				ErrServfail, resp.Header.RCode, zone, qname, qtype)
		}
	}
	return nil, fmt.Errorf("%w: %s/%s", ErrDepthLimit, qname, qtype)
}

// minimizedTarget returns the RFC 7816 probe name: the query name truncated
// to the current zone plus n additional labels. ok is false when the probe
// would already be the full name (send the real query instead).
func minimizedTarget(qname, zone dns.Name, n int) (dns.Name, bool) {
	extra := qname.LabelCount() - zone.LabelCount()
	if extra <= n {
		return qname, false
	}
	probe := qname
	for i := 0; i < extra-n; i++ {
		probe = probe.Parent()
	}
	return probe, true
}

// chaseCNAME follows a CNAME answer when the target type was not included.
// The chased records are merged into the original answer and validated
// against the answering zone's keys — correct for in-zone aliases (the only
// kind the simulated universe creates); a cross-zone alias would need
// per-rrset signer resolution, which this reproduction does not model.
func (r *Resolver) chaseCNAME(core *coreResult, qname dns.Name, qtype dns.Type, depth int) (*coreResult, error) {
	if qtype == dns.TypeCNAME {
		return core, nil
	}
	var target dns.Name
	hasTarget := false
	for _, rr := range core.answer {
		if rr.Type == qtype {
			return core, nil // final answer already present
		}
		if rr.Type == dns.TypeCNAME && rr.Name == qname {
			target = rr.Data.(*dns.CNAMEData).Target
			hasTarget = true
		}
	}
	if !hasTarget {
		return core, nil
	}
	chased, err := r.resolveInternal(target, qtype, depth+1)
	if err != nil {
		return nil, fmt.Errorf("resolver: chasing CNAME %s -> %s: %w", qname, target, err)
	}
	// Merge into a fresh slice: core.answer aliases a response that may be
	// shared with an authoritative packet cache (responses travel by
	// pointer on the wire fast path), so appending in place could scribble
	// over a cached message's spare capacity.
	merged := make([]dns.RR, 0, len(core.answer)+len(chased.answer))
	merged = append(merged, core.answer...)
	merged = append(merged, chased.answer...)
	core.answer = merged
	core.rcode = chased.rcode
	return core, nil
}

// closestDelegation returns the deepest cached zone cut enclosing qname
// and its delegation (the root and nil when nothing deeper is known),
// consulting the shared infrastructure cache behind the resolver's own.
// The walk goes on with the delegation itself: another resolver sharing
// the cache may evict the name meanwhile.
func (r *Resolver) closestDelegation(qname dns.Name) (dns.Name, *delegation) {
	for n := qname; !n.IsRoot(); n = n.Parent() {
		if d, ok := r.cachedDelegation(n); ok {
			return n, d
		}
	}
	return dns.Root, nil
}

// serverAddr returns a usable server address for a zone, resolving glueless
// name servers on demand.
func (r *Resolver) serverAddr(zone dns.Name, depth int) (netip.Addr, error) {
	addrs, err := r.serverAddrs(zone, nil, depth)
	if err != nil {
		return netip.Addr{}, err
	}
	addr := addrs[0]
	r.putAddrBuf(addrs)
	return addr, nil
}

// getAddrBuf pops a candidate buffer off the freelist (or makes one).
func (r *Resolver) getAddrBuf() []netip.Addr {
	if n := len(r.addrBufs); n > 0 {
		b := r.addrBufs[n-1]
		r.addrBufs = r.addrBufs[:n-1]
		return b[:0]
	}
	return make([]netip.Addr, 0, 8)
}

// putAddrBuf returns a buffer obtained from serverAddrs to the freelist.
func (r *Resolver) putAddrBuf(b []netip.Addr) {
	if cap(b) > 0 && len(r.addrBufs) < 8 {
		r.addrBufs = append(r.addrBufs, b)
	}
}

// serverAddrs returns the candidate server addresses of a zone in failover
// order, resolving a glueless name server when no glue was provided. The
// returned slice is a freelist buffer: the caller must hand it back with
// putAddrBuf once the failover loop is done with it (root hints are copied
// into the buffer so ownership is uniform). d is the zone's delegation
// when the caller holds it, nil to look it up.
func (r *Resolver) serverAddrs(zone dns.Name, d *delegation, depth int) ([]netip.Addr, error) {
	addrs := r.getAddrBuf()
	if zone.IsRoot() {
		for _, addr := range r.cfg.RootHints {
			r.noteServer(addr, depth)
		}
		return append(addrs, r.cfg.RootHints...), nil
	}
	if d == nil {
		var ok bool
		if d, ok = r.cachedDelegation(zone); !ok {
			r.putAddrBuf(addrs)
			return nil, fmt.Errorf("%w: zone %s", ErrNoServers, zone)
		}
	}
	for i := range d.servers {
		if d.servers[i].addr.IsValid() {
			r.noteServer(d.servers[i].addr, depth)
			addrs = append(addrs, d.servers[i].addr)
		}
	}
	if len(addrs) > 0 {
		return addrs, nil
	}
	// Glueless: resolve server addresses until one resolves. The address is
	// recorded in a copy of the delegation: the stored one may be in use by
	// every resolver sharing the cache.
	for i := range d.servers {
		core, err := r.resolveInternal(d.servers[i].name, dns.TypeA, depth+1)
		if err != nil {
			continue
		}
		for _, rr := range core.answer {
			if a, ok := rr.Data.(*dns.AData); ok {
				learned := d.clone()
				learned.servers[i].addr = a.Addr
				r.cache.replaceDelegation(zone, d, learned)
				r.noteServer(a.Addr, depth)
				return append(addrs[:0], a.Addr), nil
			}
		}
	}
	r.putAddrBuf(addrs)
	return nil, fmt.Errorf("%w: zone %s (glueless, unresolvable)", ErrNoServers, zone)
}

// retryRounds is how many passes over a zone's server list the resolver
// makes before giving up — pass 2 retries servers that timed out (packet
// loss), matching real-resolver retransmission.
const retryRounds = 2

// exchangeWithZone sends the query to the zone's servers with failover and
// retry: a transport failure (dead server, lost packet) moves on to the
// next candidate, then retries the list once. With Resilience configured,
// the budgeted/backoff loop in exchangeResilient replaces the fixed rounds.
//
// Failover accounting: Failovers counts server transitions — the failed
// attempts before a success, or one fewer than total attempts when every
// attempt failed (the first attempt is not a failover). A single accounting
// point per outcome keeps the counter from double-charging, and
// noteFailovers guards the exhaustion path against a negative adjustment.
// d is as for serverAddrs.
func (r *Resolver) exchangeWithZone(zone dns.Name, d *delegation, qname dns.Name, qtype dns.Type, depth int) (*dns.Message, error) {
	addrs, err := r.serverAddrs(zone, d, depth)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		// serverAddrs never returns an empty list without an error today;
		// this guard keeps the accounting below and the round-robin indexing
		// safe if that ever changes.
		r.putAddrBuf(addrs)
		return nil, fmt.Errorf("%w: zone %s (empty candidate list)", ErrNoServers, zone)
	}
	if r.resil != nil {
		resp, err := r.exchangeResilient(addrs, qname, qtype)
		r.putAddrBuf(addrs)
		return resp, err
	}
	var lastErr error
	attempts := 0
	for round := 0; round < retryRounds; round++ {
		for _, addr := range addrs {
			resp, err := r.exchange(addr, qname, qtype)
			if err == nil {
				r.noteFailovers(attempts)
				r.putAddrBuf(addrs)
				return resp, nil
			}
			lastErr = err
			attempts++
			if !faults.IsTransient(err) {
				// A permanently-classified error (no route, misconfig)
				// cannot be outwaited or failed over around.
				r.noteFailovers(attempts - 1)
				r.putAddrBuf(addrs)
				return nil, lastErr
			}
		}
	}
	r.noteFailovers(attempts - 1)
	r.putAddrBuf(addrs)
	return nil, lastErr
}

// noteServer performs the first-contact PTR sampling of server addresses.
func (r *Resolver) noteServer(addr netip.Addr, depth int) {
	if r.cache.noteSeenServer(addr) {
		return
	}
	if r.cfg.PTRSamplePercent <= 0 || depth > 0 {
		return
	}
	if int(hashString(addr.String())%100) >= r.cfg.PTRSamplePercent {
		return
	}
	if rev, err := reverseName(addr); err == nil {
		_, _ = r.resolveInternal(rev, dns.TypePTR, depth+1)
	}
}

// cacheDelegation stores the zone cut learned from a referral. Glue lookup
// is a nested scan rather than a map: referrals carry a handful of records,
// and this runs once per learned zone cut. The last matching A record wins,
// as it did when the glue went through a map.
func (r *Resolver) cacheDelegation(child, parent dns.Name, resp *dns.Message) *delegation {
	d := &delegation{parent: parent}
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(*dns.NSData)
		if !ok || rr.Name != child {
			continue
		}
		var addr netip.Addr
		for _, ad := range resp.Additional {
			if a, ok := ad.Data.(*dns.AData); ok && ad.Name == ns.Target {
				addr = a.Addr
			}
		}
		d.servers = append(d.servers, nsServer{name: ns.Target, addr: addr})
	}
	r.cache.storeDelegation(child, d)
	return d
}

// maybeCompleteNS issues the sampled authoritative-NS completion query for
// a newly learned zone.
func (r *Resolver) maybeCompleteNS(child dns.Name, depth int) {
	if r.cfg.NSCompletionPercent <= 0 || depth > 0 {
		return
	}
	if r.cache.noteNSCompleted(child) {
		return
	}
	if int(hashString(string(child))%100) >= r.cfg.NSCompletionPercent {
		return
	}
	if addr, err := r.serverAddr(child, depth+1); err == nil {
		_, _ = r.exchange(addr, child, dns.TypeNS)
	}
}

// harvestSpans extracts validated NSEC spans of the look-aside zone for
// aggressive negative caching.
func (r *Resolver) harvestSpans(resp *dns.Message) {
	lc := r.cfg.Lookaside
	if lc == nil || lc.DisableAggressiveNegCache {
		return
	}
	reg, ok := r.cachedOutcome(lc.Zone)
	if !ok || reg.status != StatusSecure {
		return // registry keys not validated: spans cannot be trusted
	}
	now := r.nowSeconds()
	for _, rr := range resp.Authority {
		nsec, ok := rr.Data.(*dns.NSECData)
		if !ok || !rr.Name.IsSubdomainOf(lc.Zone) {
			continue
		}
		sig, ok := findSig(resp.Authority, rr.Name, dns.TypeNSEC)
		if !ok {
			continue
		}
		if !r.verifyWithKeys(reg.keys, sig, []dns.RR{rr}, now) {
			continue
		}
		r.cache.addSpan(lc.Zone, span{
			owner: rr.Name, next: nsec.NextName, expires: now + rr.TTL,
		}, now)
	}
}

// --- small helpers ---

// stripSigs removes RRSIGs from an answer set for the stub-facing result.
func stripSigs(rrs []dns.RR) []dns.RR {
	var out []dns.RR
	for _, rr := range rrs {
		if rr.Type != dns.TypeRRSIG {
			out = append(out, rr)
		}
	}
	return out
}

// minTTL returns the smallest TTL in a record set (or the default).
func minTTL(rrs []dns.RR) uint32 {
	ttl := defaultPositiveTTL
	for i, rr := range rrs {
		if i == 0 || rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	return ttl
}

// negativeTTLFrom derives the negative-caching TTL from the SOA minimum.
func negativeTTLFrom(authority []dns.RR) uint32 {
	for _, rr := range authority {
		if soa, ok := rr.Data.(*dns.SOAData); ok {
			if soa.MinTTL < rr.TTL {
				return soa.MinTTL
			}
			return rr.TTL
		}
	}
	return defaultNegativeTTL
}

// soaOwner returns the SOA owner of a negative response (the answering
// zone), falling back to the zone being queried.
func soaOwner(authority []dns.RR, fallback dns.Name) dns.Name {
	for _, rr := range authority {
		if rr.Type == dns.TypeSOA {
			return rr.Name
		}
	}
	return fallback
}

// referralChild finds the delegation owner in a referral's authority
// section: the NS owner strictly below the current zone.
func referralChild(authority []dns.RR, zone dns.Name) (dns.Name, bool) {
	for _, rr := range authority {
		if rr.Type == dns.TypeNS && rr.Name != zone && rr.Name.IsSubdomainOf(zone) {
			return rr.Name, true
		}
	}
	return "", false
}

// findSig locates the RRSIG covering (name, type) in a section.
func findSig(section []dns.RR, name dns.Name, covered dns.Type) (dns.RR, bool) {
	for _, rr := range section {
		sig, ok := rr.Data.(*dns.RRSIGData)
		if ok && rr.Name == name && sig.TypeCovered == covered {
			return rr, true
		}
	}
	return dns.RR{}, false
}

// reverseName maps an IPv4 address to its in-addr.arpa name.
func reverseName(addr netip.Addr) (dns.Name, error) {
	if !addr.Is4() {
		return "", fmt.Errorf("resolver: reverse lookup only modeled for IPv4, got %s", addr)
	}
	b := addr.As4()
	return dns.MakeName(fmt.Sprintf("%d.%d.%d.%d.in-addr.arpa", b[3], b[2], b[1], b[0]))
}

// hashString provides deterministic sampling decisions.
func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
