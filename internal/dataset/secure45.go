package dataset

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// SecureDomainsCount is the size of the §5.2 test list (Huque's list of 45
// DNSSEC-secured domains).
const SecureDomainsCount = 45

// SecureIslandCount is how many of the 45 are islands of security (signed,
// no DS in the parent) — the five domains the paper observed leaking to the
// DLV server even under a correct configuration.
const SecureIslandCount = 5

// SecureDepositedCount is how many of the islands deposited their keys in
// the registry (providing actual validation utility).
const SecureDepositedCount = 2

// SecureDomains returns the 45-domain DNSSEC-secured test list modeled on
// §5.2: 40 domains with a complete chain of trust, 5 islands of security,
// of which 2 are deposited in the DLV registry.
//
// The domains live under the synthetic "sec-test" TLDs of the universe so
// they never collide with the Alexa-like population.
func SecureDomains() []Domain {
	out := make([]Domain, 0, SecureDomainsCount)
	for i := 0; i < SecureDomainsCount; i++ {
		tld := []string{"edu", "net", "org"}[i%3]
		d := Domain{
			Name:   dns.MustName(fmt.Sprintf("secure%02d.%s", i, tld)),
			Signed: true,
			Rank:   int32(i + 1),
		}
		switch {
		case i < SecureDomainsCount-SecureIslandCount:
			d.DSInParent = true
		case i < SecureDomainsCount-SecureIslandCount+SecureDepositedCount:
			d.InDLV = true // island, deposited
		default:
			// island, not deposited: pure Case-2 leakage when queried
		}
		out = append(out, d)
	}
	return out
}
