package lookaside_test

import (
	"fmt"
	"log"

	lookaside "github.com/dnsprivacy/lookaside"
)

// Building a simulation and auditing the yum-default environment — the
// configuration the paper found shipping with DLV armed.
func Example() {
	sim, err := lookaside.NewSimulation(lookaside.SimulationConfig{Domains: 500, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sim.Audit(lookaside.Environments().YumDefault, sim.TopDomains(50))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.QueriedDomains, "domains queried")
	fmt.Println(report.LeakedDomains > 0, "— the registry observed domains it holds no records for")
	// Output:
	// 50 domains queried
	// true — the registry observed domains it holds no records for
}

// The missing-trust-anchor misconfiguration (§4.3): validation is on, but
// without the root anchor every chain ends indeterminate and even secured
// domains are shipped to the registry.
func Example_misconfiguration() {
	sim, err := lookaside.NewSimulation(lookaside.SimulationConfig{Domains: 500, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	correct, err := sim.Audit(lookaside.Environments().YumDefault, sim.SecuredDomains())
	if err != nil {
		log.Fatal(err)
	}
	broken, err := sim.Audit(lookaside.Environments().ManualInstall, sim.SecuredDomains())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("with anchor, secure answers:", correct.SecureAnswers >= 40)
	fmt.Println("without anchor, secure answers collapse:", broken.SecureAnswers <= 2)
	// Output:
	// with anchor, secure answers: true
	// without anchor, secure answers collapse: true
}

// The privacy-preserving registry (§6.2.2): queries carry hashes, so the
// registry cannot attribute observations to domains.
func Example_hashedRegistry() {
	sim, err := lookaside.NewSimulation(lookaside.SimulationConfig{
		Domains: 500, Seed: 42, HashedRegistry: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := sim.Audit(lookaside.Environments().YumDefault, sim.TopDomains(50))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("registry contacted:", report.DLVQueries > 0)
	fmt.Println("domains identified:", report.LeakedDomains+report.Case1Domains)
	// Output:
	// registry contacted: true
	// domains identified: 0
}

// A hardened resolver stacks every privacy mechanism the repository
// implements: RFC 7816 q-name minimisation, the Z-bit DLV remedy (§6.2.1)
// and RFC 7830 response padding. Each guards a different observer; the
// registry is the one the paper measures.
func Example_hardened() {
	hardened := lookaside.Environments().YumDefault
	hardened.Name = "hardened"
	hardened.QNameMinimization = true
	hardened.Remedy = "zbit"
	hardened.PaddingBlock = 468

	var reports []*lookaside.AuditReport
	for _, env := range []lookaside.Environment{lookaside.Environments().YumDefault, hardened} {
		// The Z-bit remedy needs its authoritative half too.
		sim, err := lookaside.NewSimulation(lookaside.SimulationConfig{
			Domains: 2000, Seed: 23, ZBitRemedy: env.Remedy == "zbit",
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sim.Audit(env, sim.TopDomains(300))
		if err != nil {
			log.Fatal(err)
		}
		reports = append(reports, rep)
	}
	stock, hard := reports[0], reports[1]
	fmt.Println("domains leaked to the registry:", stock.LeakedDomains > 0, "→", hard.LeakedDomains)
	fmt.Println("look-aside queries skipped on the Z-bit signal:", hard.SkippedByRemedy > 0)
	fmt.Println("NS queries added by q-name minimisation:", hard.QueryTypeCounts["NS"] > stock.QueryTypeCounts["NS"])
	fmt.Println("hardening costs wire bytes:", hard.TrafficBytes > stock.TrafficBytes)
	// Output:
	// domains leaked to the registry: true → 0
	// look-aside queries skipped on the Z-bit signal: true
	// NS queries added by q-name minimisation: true
	// hardening costs wire bytes: true
}
