package zone

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// AllRecords returns every stored record of the zone (unsigned view, no
// NSEC chain).
func (z *Zone) AllRecords() []dns.RR {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.ensureSortedLocked()
	var out []dns.RR
	for _, name := range z.names {
		for _, typ := range z.typesByName[name] {
			key := dns.Key{Name: name, Type: typ, Class: dns.ClassIN}
			out = append(out, z.records[key]...)
		}
	}
	return out
}

// TransferRecords exports the zone for AXFR: the signed view when signing
// is armed, the raw records otherwise. The SOA comes first, per RFC 5936.
func (z *Zone) TransferRecords() ([]dns.RR, error) {
	var rrs []dns.RR
	if z.IsSigned() {
		var err error
		rrs, err = z.SignedRecords()
		if err != nil {
			return nil, err
		}
	} else {
		rrs = z.AllRecords()
	}
	// Move the SOA to the front.
	for i, rr := range rrs {
		if rr.Type == dns.TypeSOA && rr.Name == z.apex {
			rrs[0], rrs[i] = rrs[i], rrs[0]
			break
		}
	}
	return rrs, nil
}

// SignedRecords materializes the complete signed zone: every stored RRset
// with its RRSIG, plus the full NSEC chain with signatures. It is what
// cmd/zonesign writes out, and it lets tests verify whole-zone integrity.
// Records below delegation cuts (glue) are exported unsigned, and the
// NSEC chain skips them, as RFC 4035 requires.
func (z *Zone) SignedRecords() ([]dns.RR, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if !z.signed {
		return nil, ErrNotSigned
	}
	z.ensureSortedLocked()

	var out []dns.RR
	for _, name := range z.names {
		visible := z.mergedVisibleLocked(name)
		isCut := z.cuts[name]
		for _, typ := range z.typesByName[name] {
			key := dns.Key{Name: name, Type: typ, Class: dns.ClassIN}
			rrset := z.records[key]
			out = append(out, rrset...)
			if !visible {
				continue // glue is never signed
			}
			// At a cut the parent signs only the DS RRset; NS is delegation
			// data and stays unsigned.
			if isCut && typ != dns.TypeDS {
				continue
			}
			sig, err := z.signSetLocked(rrset)
			if err != nil {
				return nil, fmt.Errorf("zone: exporting %s: %w", key, err)
			}
			out = append(out, sig)
		}
		if !visible || z.nsec3 {
			continue
		}
		nsec, err := z.nsecAtLocked(z.ownerLocked(name))
		if err != nil {
			return nil, err
		}
		sig, err := z.signSetLocked([]dns.RR{nsec})
		if err != nil {
			return nil, err
		}
		out = append(out, nsec, sig)
	}
	return out, nil
}
