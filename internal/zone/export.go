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
	for i := range z.owners {
		out = append(out, z.owners[i].rrs...)
	}
	return out
}

// TransferRecords exports the zone for AXFR: the signed view when signing
// is armed, the raw records otherwise. The SOA comes first, per RFC 5936:
// the apex is the owner table's first entry, and New filed its SOA first.
func (z *Zone) TransferRecords() ([]dns.RR, error) {
	if z.IsSigned() {
		return z.SignedRecords()
	}
	return z.AllRecords(), nil
}

// SignedRecords materializes the complete signed zone: every stored RRset
// with its RRSIG, plus the full NSEC chain with signatures. It is what
// cmd/zonesign writes out, and it lets tests verify whole-zone integrity.
// Records below delegation cuts (glue) are exported unsigned, and the
// NSEC chain skips them, as RFC 4035 requires.
func (z *Zone) SignedRecords() ([]dns.RR, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.sig == nil {
		return nil, ErrNotSigned
	}
	z.ensureSortedLocked()

	var out []dns.RR
	for i := range z.owners {
		e := &z.owners[i]
		visible := z.mergedVisibleLocked(e.name)
		for rest := e.rrs; len(rest) > 0; {
			rrset := typeRun(rest, rest[0].Type)
			rest = rest[len(rrset):]
			out = append(out, rrset...)
			if !visible {
				continue // glue is never signed
			}
			// At a cut the parent signs only the DS RRset; NS is delegation
			// data and stays unsigned.
			if e.cut && rrset[0].Type != dns.TypeDS {
				continue
			}
			sig, err := z.signSetLocked(rrset)
			if err != nil {
				return nil, fmt.Errorf("zone: exporting %s: %w", rrset[0].Key(), err)
			}
			out = append(out, sig)
		}
		if !visible || z.sig.NSEC3 {
			continue
		}
		nsec, err := z.nsecAtLocked(z.ownerLocked(e.name))
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
