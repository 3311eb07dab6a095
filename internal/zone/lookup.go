package zone

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
)

// ResultKind classifies the outcome of a zone lookup.
type ResultKind int

// Lookup outcomes.
const (
	// KindAnswer: authoritative data for the query name and type.
	KindAnswer ResultKind = iota + 1
	// KindReferral: the name lies below a delegation cut; authority holds
	// the child NS set plus the DS RRset or its NSEC denial.
	KindReferral
	// KindNXDomain: the name does not exist; authority holds SOA and, in a
	// signed zone, the covering NSEC.
	KindNXDomain
	// KindNoData: the name exists but has no records of the requested
	// type; authority holds SOA and, in a signed zone, the matching NSEC.
	KindNoData
	// KindRefused: the name is out of zone.
	KindRefused
)

var kindNames = map[ResultKind]string{
	KindAnswer:   "answer",
	KindReferral: "referral",
	KindNXDomain: "nxdomain",
	KindNoData:   "nodata",
	KindRefused:  "refused",
}

// String implements fmt.Stringer.
func (k ResultKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Result is the outcome of a zone lookup, already shaped into response
// sections.
type Result struct {
	Kind       ResultKind
	RCode      dns.RCode
	Answer     []dns.RR
	Authority  []dns.RR
	Additional []dns.RR
}

// AnswerRRSetOfType returns the answer-section records of the given type.
func (r *Result) AnswerRRSetOfType(t dns.Type) []dns.RR {
	var out []dns.RR
	for _, rr := range r.Answer {
		if rr.Type == t {
			out = append(out, rr)
		}
	}
	return out
}

// Lookup resolves (qname, qtype) against the zone's authoritative data.
// When dnssecOK is set and the zone is signed, RRSIGs and denial proofs are
// attached exactly as an authoritative DNSSEC server would.
func (z *Zone) Lookup(qname dns.Name, qtype dns.Type, dnssecOK bool) (*Result, error) {
	if !qname.IsSubdomainOf(z.apex) {
		return &Result{Kind: KindRefused, RCode: dns.RCodeRefused}, nil
	}
	z.mu.Lock()
	defer z.mu.Unlock()

	withSigs := dnssecOK && z.sig != nil

	// qname's place in the synthesized index is resolved here, once, for
	// every question the lookup asks about it.
	q := z.ownerLocked(qname)

	// Delegation handling: find the highest cut at or above qname (strictly
	// below the apex). The parent answers DS queries at the cut itself;
	// everything else at or below the cut is a referral.
	if cut, ok := z.findCutLocked(q); ok {
		if qname == cut.name && qtype == dns.TypeDS {
			return z.answerLocked(q, qtype, withSigs)
		}
		return z.referralLocked(cut, withSigs)
	}

	if z.existsLocked(q) {
		return z.answerLocked(q, qtype, withSigs)
	}
	if z.hasDescendantLocked(q) {
		// Empty non-terminal: the name exists structurally (names live
		// below it) but owns no records — NODATA, not NXDOMAIN (RFC 4592
		// §2.2.2), and never wildcard-covered. The denial proof is the
		// covering NSEC, since an ENT has no NSEC of its own.
		return z.negativeLocked(KindNoData, q, false, withSigs)
	}
	if res, ok, err := z.wildcardLocked(q, qtype, withSigs); err != nil {
		return nil, err
	} else if ok {
		return res, nil
	}
	return z.negativeLocked(KindNXDomain, q, false, withSigs)
}

// findCutLocked returns the shallowest delegation cut at or above q.
func (z *Zone) findCutLocked(q owner) (owner, bool) {
	if !z.hasCuts && z.synth == nil {
		return owner{}, false
	}
	// The shallowest cut (closest to the apex) wins, mirroring real servers:
	// walk up from qname and keep the last cut seen.
	var cut owner
	found := false
	for o := q; o.name != z.apex && !o.name.IsRoot(); o = z.ownerLocked(o.name.Parent()) {
		if z.isCutLocked(o) {
			cut, found = o, true
		}
	}
	return cut, found
}

// answerLocked builds an authoritative answer or NODATA for an existing
// name.
func (z *Zone) answerLocked(q owner, qtype dns.Type, withSigs bool) (*Result, error) {
	rrset, err := z.rrsetLocked(q, qtype)
	if err == nil && len(rrset) == 0 && qtype != dns.TypeCNAME {
		// CNAME at the name answers any other type.
		rrset, err = z.rrsetLocked(q, dns.TypeCNAME)
	}
	if err != nil {
		return nil, err
	}
	if len(rrset) > 0 {
		res := &Result{Kind: KindAnswer, RCode: dns.RCodeNoError}
		res.Answer = append(res.Answer, rrset...)
		if withSigs {
			sig, err := z.signSetLocked(rrset)
			if err != nil {
				return nil, err
			}
			res.Answer = append(res.Answer, sig)
		}
		return res, nil
	}
	return z.negativeLocked(KindNoData, q, true, withSigs)
}

// referralLocked builds a delegation response for a cut.
func (z *Zone) referralLocked(cut owner, withSigs bool) (*Result, error) {
	res := &Result{Kind: KindReferral, RCode: dns.RCodeNoError}
	nsSet, err := z.rrsetLocked(cut, dns.TypeNS)
	if err != nil {
		return nil, err
	}
	res.Authority = append(res.Authority, nsSet...)

	if withSigs {
		dsSet, err := z.rrsetLocked(cut, dns.TypeDS)
		if err != nil {
			return nil, err
		}
		if len(dsSet) > 0 {
			res.Authority = append(res.Authority, dsSet...)
			sig, err := z.signSetLocked(dsSet)
			if err != nil {
				return nil, err
			}
			res.Authority = append(res.Authority, sig)
		} else {
			// Signed parent, unsigned delegation: prove DS absence. This is
			// the signal that makes a signed child an island of security.
			if err := z.attachDenialLocked(res, cut, true); err != nil {
				return nil, err
			}
		}
	}
	// Glue for in-zone name servers.
	for _, ns := range nsSet {
		target := z.ownerLocked(ns.Data.(*dns.NSData).Target)
		for _, t := range []dns.Type{dns.TypeA, dns.TypeAAAA} {
			glue, err := z.rrsetLocked(target, t)
			if err != nil {
				return nil, err
			}
			res.Additional = append(res.Additional, glue...)
		}
	}
	return res, nil
}

// wildcardLocked synthesizes an answer from a covering wildcard (RFC 4592):
// walk to the closest encloser of qname and expand "*.<encloser>" if it
// exists. The synthesized records carry qname as owner; their RRSIG (signed
// over the wildcard, Labels < owner labels) lets validators reconstruct the
// source per RFC 4035 §5.3.2, and a covering NSEC proves the exact name did
// not exist.
func (z *Zone) wildcardLocked(q owner, qtype dns.Type, withSigs bool) (*Result, bool, error) {
	qname := q.name
	// Closest encloser: the deepest ancestor that exists (as a name or
	// structurally).
	encloser := qname.Parent()
	for encloser != z.apex && !encloser.IsRoot() {
		if e := z.ownerLocked(encloser); z.existsLocked(e) ||
			z.hasDescendantLocked(e) {
			break
		}
		encloser = encloser.Parent()
	}
	name, err := encloser.Prepend("*")
	if err != nil {
		return nil, false, err
	}
	wildcard := z.ownerLocked(name)
	if !z.existsLocked(wildcard) {
		return nil, false, nil
	}
	rrset, err := z.rrsetLocked(wildcard, qtype)
	if err != nil {
		return nil, false, err
	}
	if len(rrset) == 0 {
		// Wildcard exists but not for this type: NODATA at the wildcard.
		res, err := z.negativeLocked(KindNoData, q, false, withSigs)
		return res, err == nil, err
	}
	res := &Result{Kind: KindAnswer, RCode: dns.RCodeNoError}
	for _, rr := range rrset {
		synth := rr
		synth.Name = qname
		res.Answer = append(res.Answer, synth)
	}
	if withSigs {
		sig, err := z.signSetLocked(rrset) // signed over the wildcard owner
		if err != nil {
			return nil, false, err
		}
		sig.Name = qname // served at the synthesized name, Labels reveals the source
		res.Answer = append(res.Answer, sig)
		// Prove the exact name did not exist (RFC 4035 §3.1.3.3).
		if err := z.attachDenialLocked(res, q, false); err != nil {
			return nil, false, err
		}
	}
	return res, true, nil
}

// negativeLocked builds a NODATA or NXDOMAIN response for q: the SOA and,
// signed, the denial proof (see attachDenialLocked for exists).
func (z *Zone) negativeLocked(kind ResultKind, q owner, exists, withSigs bool) (*Result, error) {
	res := &Result{Kind: kind, RCode: dns.RCodeNoError}
	if kind == KindNXDomain {
		res.RCode = dns.RCodeNXDomain
	}
	if err := z.attachSOALocked(res, withSigs); err != nil {
		return nil, err
	}
	if withSigs {
		if err := z.attachDenialLocked(res, q, exists); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// attachSOALocked appends the apex SOA (and its signature) to the authority
// section, with the negative-caching TTL.
func (z *Zone) attachSOALocked(res *Result, withSigs bool) error {
	// The apex is entry 0 sorted or not, and New filed the SOA there.
	soaSet := typeRun(z.owners[0].rrs, dns.TypeSOA)
	res.Authority = append(res.Authority, soaSet...)
	if withSigs {
		sig, err := z.signSetLocked(soaSet)
		if err != nil {
			return err
		}
		res.Authority = append(res.Authority, sig)
	}
	return nil
}

// attachDenialLocked appends the denial-of-existence proof for q. exists
// distinguishes NODATA (NSEC at the name itself) from NXDOMAIN (covering
// NSEC). In NSEC3 mode a hashed record is attached instead, which resolvers
// cannot use for aggressive negative caching (RFC 5074 §5).
func (z *Zone) attachDenialLocked(res *Result, q owner, exists bool) error {
	if z.sig.NSEC3 {
		return z.attachNSEC3Locked(res, q.name)
	}
	at := q
	if !exists {
		at = z.predecessorLocked(q)
	}
	nsec, err := z.nsecAtLocked(at)
	if err != nil {
		return err
	}
	sig, err := z.signSetLocked([]dns.RR{nsec})
	if err != nil {
		return err
	}
	res.Authority = append(res.Authority, nsec, sig)
	return nil
}

// nsecAtLocked materializes the NSEC record owned by o from the sorted
// static and synthesized owners.
func (z *Zone) nsecAtLocked(o owner) (dns.RR, error) {
	if !z.existsLocked(o) {
		return dns.RR{}, fmt.Errorf("zone: nsec owner %s does not exist", o.name)
	}
	next := z.successorLocked(o)
	types := z.mergedTypesAtLocked(o)
	types = append(types, dns.TypeRRSIG, dns.TypeNSEC)
	dns.SortTypes(types)
	return dns.RR{
		Name: o.name, Type: dns.TypeNSEC, Class: dns.ClassIN, TTL: negativeTTL,
		Data: &dns.NSECData{NextName: next, Types: types},
	}, nil
}

// attachNSEC3Locked appends a minimal NSEC3 denial (enough for a resolver
// to accept the negative answer; not aggressively cacheable).
func (z *Zone) attachNSEC3Locked(res *Result, qname dns.Name) error {
	hash := dnssec.NSEC3Hash(qname, z.sig.NSEC3Salt, z.sig.NSEC3Iterations)
	label := dnssec.NSEC3OwnerLabel(hash)
	owner, err := z.apex.Prepend(label)
	if err != nil {
		return fmt.Errorf("zone: nsec3 owner: %w", err)
	}
	nsec3 := dns.RR{
		Name: owner, Type: dns.TypeNSEC3, Class: dns.ClassIN, TTL: negativeTTL,
		Data: &dns.NSEC3Data{
			HashAlgorithm: dnssec.NSEC3HashSHA1,
			Iterations:    z.sig.NSEC3Iterations,
			Salt:          z.sig.NSEC3Salt,
			NextHash:      hash,
			Types:         []dns.Type{dns.TypeRRSIG},
		},
	}
	sig, err := z.signSetLocked([]dns.RR{nsec3})
	if err != nil {
		return err
	}
	res.Authority = append(res.Authority, nsec3, sig)
	return nil
}

// successorLocked returns the next visible owner name after owner in
// canonical order — across the static and synthesized indexes — wrapping to
// the apex at the end of the chain.
func (z *Zone) successorLocked(o owner) dns.Name {
	s, okS := z.staticAfterLocked(o.name)
	y, okY := z.synthAfterLocked(o)
	switch {
	case okS && okY:
		if dns.CanonicalLess(s, y) {
			return s
		}
		return y
	case okS:
		return s
	case okY:
		return y
	}
	return z.apex
}

// predecessorLocked returns the closest visible owner sorting strictly
// before the (nonexistent) q — across both indexes — with the apex as the
// floor of the chain.
func (z *Zone) predecessorLocked(q owner) owner {
	s, okS := z.staticBeforeLocked(q.name)
	y, okY := z.synthBeforeLocked(q)
	switch {
	case okY && (!okS || dns.CanonicalLess(s, y.name)):
		return y
	case okS:
		return z.ownerLocked(s)
	}
	return z.ownerLocked(z.apex)
}

// signSetLocked returns the RRSIG for an RRset, memoized while recently
// used: a paper-scale TLD zone answers on the order of a million distinct DS
// denials, each asked for within one resolution and never again, and
// re-signing the few that do come back is cheaper than holding them all. The
// DNSKEY RRset is signed by the KSK, everything else by the ZSK.
func (z *Zone) signSetLocked(rrset []dns.RR) (dns.RR, error) {
	s := z.sig
	if s == nil {
		return dns.RR{}, ErrNotSigned
	}
	key := rrset[0].Key()
	if sig, ok := s.sigs.Get(key); ok {
		return sig, nil
	}
	signer := s.ZSK
	if key.Type == dns.TypeDNSKEY {
		signer = s.KSK
	}
	sig, err := dnssec.SignRRSet(signer, z.apex, rrset, s.Inception, s.Expiration, s.Rand)
	if err != nil {
		return dns.RR{}, fmt.Errorf("zone %s: signing %s: %w", z.apex, key, err)
	}
	s.sigs.Put(key, sig)
	return sig, nil
}

// RecordCount returns the total number of records in the zone.
func (z *Zone) RecordCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	// A dirty table counts the same: an owner's entries hold disjoint records.
	total := 0
	for i := range z.owners {
		total += len(z.owners[i].rrs)
	}
	return total
}
