package dlv_test

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// An island of security (a signed zone whose parent holds no DS) deposits
// its key with a plain and with a hashed registry. A validator then asks
// both for the island and for a domain that never deposited: the second
// query is the paper's Case-2 leak, and only the plain registry can read
// which domain it names. The two answer records are the DLV record and its
// RRSIG.
func Example() {
	rng := rand.New(rand.NewSource(1))
	island := dns.MustName("island.example.net")
	ksk, err := dnssec.GenerateKey(dnssec.AlgECDSAP256, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		log.Fatal(err)
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgECDSAP256, dns.DNSKEYFlagZone, rng)
	if err != nil {
		log.Fatal(err)
	}
	z, err := zone.New(zone.Config{Apex: island, Serial: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31, Rand: rng}); err != nil {
		log.Fatal(err)
	}
	rec, err := z.DLV(dnssec.DigestSHA256)
	if err != nil {
		log.Fatal(err)
	}

	for _, hashed := range []bool{false, true} {
		reg, err := dlv.NewRegistry(dlv.Config{
			Apex: dns.MustName("dlv.isc.org"), Algorithm: dnssec.AlgECDSAP256, Rand: rng,
			Inception: 0, Expiration: 1 << 31, Hashed: hashed,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.Deposit(island, rec); err != nil {
			log.Fatal(err)
		}
		fmt.Println("hashed registry:", hashed)
		for _, domain := range []dns.Name{island, dns.MustName("innocent-bystander.com")} {
			qname, err := dlv.LookasideName(domain, reg.Apex(), hashed)
			if err != nil {
				log.Fatal(err)
			}
			res, err := reg.Zone().Lookup(qname, dns.TypeDLV, true)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s DLV -> %s, %d answer records\n", qname, res.RCode, len(res.Answer))
		}
	}
	// Output:
	// hashed registry: false
	//   island.example.net.dlv.isc.org. DLV -> NOERROR, 2 answer records
	//   innocent-bystander.com.dlv.isc.org. DLV -> NXDOMAIN, 0 answer records
	// hashed registry: true
	//   dp1a12foch53ps6atlu0b9so0b8i05jf2h7f4ahcsbkvi09b1drg.dlv.isc.org. DLV -> NOERROR, 2 answer records
	//   c791pi39t9ls56ab9m7g8ul1cnmfduq308umiclnj3benuhg9v1g.dlv.isc.org. DLV -> NXDOMAIN, 0 answer records
}
