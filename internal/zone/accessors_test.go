package zone

// Accessors only tests ask for: the served path never reads the NSEC chain
// as a list, a key tag or the denial mode back from a zone.

import "github.com/dnsprivacy/lookaside/internal/dns"

// NSECChainNames returns the visible owner names in canonical order —
// static and synthesized alike; used by tests to verify chain integrity.
func (z *Zone) NSECChainNames() []dns.Name {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.ensureSortedLocked()
	z.synthEnsureLocked()
	var out []dns.Name
	i, j, synthN := 0, 0, 0
	if z.synth != nil {
		synthN = len(z.synth.kind)
	}
	for i < len(z.owners) || j < synthN {
		var n dns.Name
		switch {
		case j >= synthN:
			n, i = z.owners[i].name, i+1
		case i >= len(z.owners):
			n, j = z.synth.name(j), j+1
		default:
			if y := z.synth.name(j); dns.CanonicalLess(z.owners[i].name, y) {
				n, i = z.owners[i].name, i+1
			} else {
				n, j = y, j+1
			}
		}
		if z.mergedVisibleLocked(n) {
			out = append(out, n)
		}
	}
	return out
}

// KSKTag returns the key tag of the zone's key-signing key.
func (z *Zone) KSKTag() (uint16, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if z.sig == nil {
		return 0, ErrNotSigned
	}
	return z.sig.KSK.KeyTag(), nil
}

// UsesNSEC3 reports whether the zone answers denials with NSEC3.
func (z *Zone) UsesNSEC3() bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.sig != nil && z.sig.NSEC3
}
