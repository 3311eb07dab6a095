package universe

import (
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// buildTestUniverse creates a small universe with the secured-45 extras.
func buildTestUniverse(t *testing.T, mutate func(*Options)) *Universe {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 400, Seed: 42})
	if err != nil {
		t.Fatalf("AlexaLike: %v", err)
	}
	opts := Options{
		Seed:       7,
		Population: pop,
		Extra:      dataset.SecureDomains(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	u, err := Build(opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return u
}

// pickDomain finds a population domain with the given deployment shape.
func pickDomain(t *testing.T, u *Universe, want func(*dataset.Domain) bool) *dataset.Domain {
	t.Helper()
	for i := range u.opts.Population.Domains {
		d := &u.opts.Population.Domains[i]
		if want(d) {
			return d
		}
	}
	t.Fatal("no domain with requested shape in population")
	return nil
}

func newResolver(t *testing.T, u *Universe, withRootAnchor, withLookaside bool) *resolver.Resolver {
	t.Helper()
	cfg := u.ResolverConfig(withRootAnchor, withLookaside)
	cfg.NSCompletionPercent = 0 // keep unit assertions exact
	cfg.PTRSamplePercent = 0
	r, err := resolver.New(cfg)
	if err != nil {
		t.Fatalf("resolver.New: %v", err)
	}
	return r
}

func TestUnsignedDomainResolvesInsecureAndLeaksToDLV(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	d := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })

	var dlvQueries []dns.Name
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvQueries = append(dlvQueries, ev.Question.Name)
		}
	})

	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", d.Name, err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Status != resolver.StatusInsecure {
		t.Fatalf("status = %s, want insecure", res.Status)
	}
	if res.UsedDLV {
		t.Fatal("unsigned domain cannot validate via DLV")
	}
	// The lax rule leaks the unsigned domain to the registry (Case-2).
	found := false
	for _, q := range dlvQueries {
		if q.IsSubdomainOf(u.RegistryZone) && q.FirstLabel() == d.Name.FirstLabel() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no DLV query for %s observed; got %v", d.Name, dlvQueries)
	}
	if r.Stats().DLVQueries == 0 {
		t.Fatal("resolver did not count DLV queries")
	}
}

func TestChainedDomainIsSecureWithoutDLV(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	// Use a secured-45 chained domain: guaranteed signed parent.
	domains := dataset.SecureDomains()
	d := domains[0]
	if !d.Signed || !d.DSInParent {
		t.Fatal("test domain shape wrong")
	}

	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV {
			dlvSeen++
		}
	})
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", d.Name, err)
	}
	if res.Status != resolver.StatusSecure {
		t.Fatalf("status = %s, want secure", res.Status)
	}
	if res.UsedDLV {
		t.Fatal("on-path secure domain must not use DLV")
	}
	if dlvSeen != 0 {
		t.Fatalf("secure domain leaked %d queries to the registry", dlvSeen)
	}
}

func TestIslandValidatesViaDLV(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	domains := dataset.SecureDomains()
	// Deposited island: index 40/41 per dataset construction.
	d := domains[dataset.SecureDomainsCount-dataset.SecureIslandCount]
	if !d.IsIsland() || !d.InDLV {
		t.Fatalf("test domain shape wrong: %+v", d)
	}
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", d.Name, err)
	}
	if res.Status != resolver.StatusSecure {
		t.Fatalf("status = %s, want secure (via DLV)", res.Status)
	}
	if !res.UsedDLV {
		t.Fatal("island with deposit must validate via DLV")
	}
}

func TestUndepositedIslandStaysInsecure(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	domains := dataset.SecureDomains()
	d := domains[dataset.SecureDomainsCount-1] // undeposited island
	if !d.IsIsland() || d.InDLV {
		t.Fatalf("test domain shape wrong: %+v", d)
	}
	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvSeen++
		}
	})
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusInsecure || res.UsedDLV {
		t.Fatalf("status = %s usedDLV=%t, want insecure without DLV", res.Status, res.UsedDLV)
	}
	if dlvSeen == 0 {
		t.Fatal("undeposited island should still have been queried at the registry (Case-2 leak)")
	}
}

func TestMissingRootAnchorSendsSecuredDomainsToDLV(t *testing.T) {
	// The §5.2 finding: with dnssec-validation yes but no trust anchor,
	// even chain-complete domains are shipped to the registry.
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, false, true) // no root anchor
	d := dataset.SecureDomains()[0]     // chained domain

	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvSeen++
		}
	})
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusIndeterminate {
		t.Fatalf("status = %s, want indeterminate without anchor", res.Status)
	}
	if dlvSeen == 0 {
		t.Fatal("secured domain was not sent to DLV despite missing trust anchor")
	}
}

func TestLookasideDisabledNeverTouchesRegistry(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, false)
	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV {
			dlvSeen++
		}
	})
	d := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })
	if _, err := r.Resolve(d.Name, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if dlvSeen != 0 {
		t.Fatalf("registry contacted %d times with lookaside disabled", dlvSeen)
	}
}

func TestPolicySignedOnlySkipsUnsignedDomains(t *testing.T) {
	u := buildTestUniverse(t, nil)
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Lookaside.Policy = resolver.PolicySignedOnly
	r, err := resolver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV {
			dlvSeen++
		}
	})
	unsigned := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })
	if _, err := r.Resolve(unsigned.Name, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if dlvSeen != 0 {
		t.Fatal("signed-only policy still leaked an unsigned domain")
	}
	// An island must still be looked up.
	island := dataset.SecureDomains()[dataset.SecureDomainsCount-1]
	if _, err := r.Resolve(island.Name, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if dlvSeen == 0 {
		t.Fatal("signed-only policy must still consult the registry for islands")
	}
}

func TestAggressiveNegativeCachingSuppresses(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	// Resolve a few dozen unsigned domains; the NSEC spans learned from
	// early misses must suppress at least some later registry queries.
	count := 0
	for i := range u.opts.Population.Domains {
		d := &u.opts.Population.Domains[i]
		if d.Signed {
			continue
		}
		if _, err := r.Resolve(d.Name, dns.TypeA); err != nil {
			t.Fatalf("Resolve(%s): %v", d.Name, err)
		}
		count++
		if count >= 120 {
			break
		}
	}
	st := r.Stats()
	if st.DLVSuppressed == 0 {
		t.Fatalf("no aggressive-caching suppression after %d domains (queries=%d)", count, st.DLVQueries)
	}
	if st.DLVQueries == 0 {
		t.Fatal("no DLV queries at all — lookaside inactive?")
	}
}

func TestAggressiveCachingDisabledIncreasesLeakage(t *testing.T) {
	run := func(disable bool) int {
		u := buildTestUniverse(t, nil)
		cfg := u.ResolverConfig(true, true)
		cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
		cfg.Lookaside.DisableAggressiveNegCache = disable
		r, err := resolver.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for i := range u.opts.Population.Domains {
			d := &u.opts.Population.Domains[i]
			if d.Signed {
				continue
			}
			if _, err := r.Resolve(d.Name, dns.TypeA); err != nil {
				t.Fatal(err)
			}
			count++
			if count >= 120 {
				break
			}
		}
		return r.Stats().DLVQueries
	}
	with := run(false)
	without := run(true)
	if without <= with {
		t.Fatalf("disabling aggressive caching should increase DLV queries: with=%d without=%d", with, without)
	}
}

func TestNXDomainThroughHierarchy(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	res, err := r.Resolve(dns.MustName("definitely-not-in-population.com"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %s, want NXDOMAIN", res.RCode)
	}
}

// TestMissingTLDIsSecureNXDomain: the signed root denies a TLD it does not
// delegate, the denial validates against the root anchor, and nothing goes
// to the registry — the root's closest-encloser wildcard is "*.".
func TestMissingTLDIsSecureNXDomain(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	res, err := r.Resolve(dns.MustName("www.nosuchtld"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNXDomain || res.Status != resolver.StatusSecure {
		t.Fatalf("rcode = %s, status = %s; want NXDOMAIN, secure", res.RCode, res.Status)
	}
	if n := r.Stats().DLVQueries; n != 0 {
		t.Fatalf("a denied TLD sent %d queries to the registry", n)
	}
}

func TestStubPathSetsADBit(t *testing.T) {
	u := buildTestUniverse(t, nil)
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	if _, err := u.StartResolver(cfg); err != nil {
		t.Fatal(err)
	}
	d := dataset.SecureDomains()[0]
	resp, err := u.StubQuery(1, d.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.AD {
		t.Fatal("AD bit not set for secure answer")
	}
	if len(resp.Answer) == 0 || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("stub answer = %+v", resp)
	}

	// Unsigned domain: answered, but without AD.
	unsigned := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })
	resp, err = u.StubQuery(2, unsigned.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.AD {
		t.Fatal("AD bit set for insecure answer")
	}
}

func TestHashedRegistryUniverse(t *testing.T) {
	u := buildTestUniverse(t, func(o *Options) { o.RegistryHashed = true })
	r := newResolver(t, u, true, true)

	var dlvNames []dns.Name
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvNames = append(dlvNames, ev.Question.Name)
		}
	})
	// Deposited island still validates; the wire never carries its name.
	d := dataset.SecureDomains()[dataset.SecureDomainsCount-dataset.SecureIslandCount]
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusSecure || !res.UsedDLV {
		t.Fatalf("hashed registry: status=%s usedDLV=%t", res.Status, res.UsedDLV)
	}
	if len(dlvNames) == 0 {
		t.Fatal("no registry queries observed")
	}
	for _, q := range dlvNames {
		if q.FirstLabel() == d.Name.FirstLabel() {
			t.Fatalf("hashed mode leaked the plain domain label in %s", q)
		}
		if len(q.FirstLabel()) != 52 {
			t.Fatalf("hashed query label %q is not a hash", q.FirstLabel())
		}
	}
}

func TestEmptyRegistryStillReceivesQueries(t *testing.T) {
	// The ISC phase-out state (§7.3.2): zones removed, service running —
	// every consultation is now a Case-2 leak.
	u := buildTestUniverse(t, func(o *Options) { o.RegistryEmpty = true })
	r := newResolver(t, u, true, true)
	dlvSeen := 0
	u.Net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvSeen++
		}
	})
	d := dataset.SecureDomains()[dataset.SecureDomainsCount-1]
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedDLV {
		t.Fatal("empty registry cannot validate anything")
	}
	if dlvSeen == 0 {
		t.Fatal("phase-out registry no longer receives queries?")
	}
	if res.RCode != dns.RCodeNoError {
		t.Fatalf("rcode = %s", res.RCode)
	}
}

func TestUniverseDeterminism(t *testing.T) {
	run := func() (int, int) {
		u := buildTestUniverse(t, nil)
		r := newResolver(t, u, true, true)
		for _, d := range u.opts.Population.Top(50) {
			if _, err := r.Resolve(d.Name, dns.TypeA); err != nil {
				t.Fatal(err)
			}
		}
		q, _ := u.Net.Stats()
		return r.Stats().DLVQueries, q
	}
	d1, q1 := run()
	d2, q2 := run()
	if d1 != d2 || q1 != q2 {
		t.Fatalf("nondeterministic: run1=(%d,%d) run2=(%d,%d)", d1, q1, d2, q2)
	}
}

// TestRealCryptoUniverse validates the DESIGN.md substitution claim end to
// end: with real ECDSA P-256 throughout (no FastHMAC), the same chains
// validate and the same leaks occur.
func TestRealCryptoUniverse(t *testing.T) {
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Build(Options{
		Seed:       7,
		Algorithm:  dnssec.AlgECDSAP256,
		Population: pop,
		Extra:      dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatalf("Build with ECDSA: %v", err)
	}
	r := newResolver(t, u, true, true)

	chained := dataset.SecureDomains()[0]
	res, err := r.Resolve(chained.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusSecure {
		t.Fatalf("ECDSA chain status = %s", res.Status)
	}

	island := dataset.SecureDomains()[dataset.SecureDomainsCount-dataset.SecureIslandCount]
	res, err = r.Resolve(island.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusSecure || !res.UsedDLV {
		t.Fatalf("ECDSA island = %+v", res)
	}

	unsigned := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })
	res, err = r.Resolve(unsigned.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusInsecure {
		t.Fatalf("ECDSA unsigned status = %s", res.Status)
	}
	if r.Stats().DLVQueries == 0 {
		t.Fatal("ECDSA universe does not leak — behavioral divergence from FastHMAC")
	}
}

func TestAccessorsAndReverseTree(t *testing.T) {
	u := buildTestUniverse(t, nil)
	if u.DomainCount() < 400+dataset.SecureDomainsCount {
		t.Fatalf("DomainCount = %d", u.DomainCount())
	}
	if u.HostPools() < 4 {
		t.Fatalf("HostPools = %d", u.HostPools())
	}
	d, ok := u.Domain(dataset.SecureDomains()[0].Name)
	if !ok || !d.Signed {
		t.Fatalf("Domain lookup = %+v, %t", d, ok)
	}
	if _, ok := u.Domain(dns.MustName("ghost.example")); ok {
		t.Fatal("phantom domain found")
	}

	// The reverse tree answers PTR generatively and NODATA otherwise;
	// exercised through a resolver with PTR sampling fully on.
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent = 0
	cfg.PTRSamplePercent = 100
	r, err := resolver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(dataset.SecureDomains()[0].Name, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	// Direct PTR resolution through the hierarchy.
	res, err := r.Resolve(dns.MustName("4.0.41.198.in-addr.arpa"), dns.TypePTR)
	if err != nil {
		t.Fatalf("PTR resolution: %v", err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) == 0 {
		t.Fatalf("PTR res = %+v", res)
	}
	if _, ok := res.Answer[0].Data.(*dns.PTRData); !ok {
		t.Fatalf("answer type = %T", res.Answer[0].Data)
	}
	// Non-PTR queries at the reverse tree yield NODATA.
	res, err = r.Resolve(dns.MustName("4.0.41.198.in-addr.arpa"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) != 0 {
		t.Fatalf("reverse-tree A query = %+v", res)
	}
}
