package resolver

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// miniUniverse is a hand-built hierarchy for direct resolver testing:
//
//	. (signed) → test (signed TLD) → {secure,island,lonely,plain}.test
//	           → org → isc.org → dlv.isc.org (the registry)
type miniUniverse struct {
	net        *simnet.Network
	rootAnchor *dns.DSData
	dlvAnchor  *dns.DSData
	registry   *dlv.Registry
}

var (
	miniRoot     = netip.MustParseAddr("198.41.0.4")
	miniTLD      = netip.MustParseAddr("192.5.6.30")
	miniHost     = netip.MustParseAddr("10.50.0.1")
	miniOrg      = netip.MustParseAddr("192.5.6.31")
	miniISC      = netip.MustParseAddr("149.20.1.73")
	miniRegistry = netip.MustParseAddr("149.20.64.1")
)

func miniKeys(t *testing.T, seed int64) (*dnssec.KeyPair, *dnssec.KeyPair) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ksk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		t.Fatal(err)
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ksk, zsk
}

func signMini(t *testing.T, z *zone.Zone, seed int64) {
	t.Helper()
	ksk, zsk := miniKeys(t, seed)
	if err := z.Sign(zone.SignConfig{
		KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31,
		Rand: rand.New(rand.NewSource(seed + 1000)),
	}); err != nil {
		t.Fatal(err)
	}
}

func serveMini(t *testing.T, n *simnet.Network, addr netip.Addr, name string, role simnet.Role, srcs ...authserver.Source) {
	t.Helper()
	srv, err := authserver.New(authserver.Config{Name: name}, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Register(addr, name, role, 0, srv); err != nil {
		t.Fatal(err)
	}
}

// sldZone builds a leaf zone with an apex A record.
func sldZone(t *testing.T, apex string, seed int64, signed bool) *zone.Zone {
	t.Helper()
	z, err := zone.New(zone.Config{Apex: dns.MustName(apex), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dns.RR{
		Name: dns.MustName(apex), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: netip.MustParseAddr("203.0.113.10")},
	}); err != nil {
		t.Fatal(err)
	}
	if signed {
		signMini(t, z, seed)
	}
	return z
}

// buildMini assembles the hierarchy. The returned universe has:
// secure.test (chained), island.test (deposited island), lonely.test
// (undeposited island), plain.test (unsigned), glueless.test (unsigned,
// delegated without glue).
func buildMini(t *testing.T) *miniUniverse {
	t.Helper()
	n := simnet.New()
	u := &miniUniverse{net: n}

	root, err := zone.New(zone.Config{Apex: dns.Root, Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	signMini(t, root, 1)
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	u.rootAnchor = anchor

	tld, err := zone.New(zone.Config{Apex: dns.MustName("test"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	signMini(t, tld, 2)

	org, err := zone.New(zone.Config{Apex: dns.MustName("org"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	signMini(t, org, 3)

	delegate := func(parent *zone.Zone, child string, addr netip.Addr, ds *dns.DSData) {
		childName := dns.MustName(child)
		nsName, err := childName.Prepend("ns1")
		if err != nil {
			t.Fatal(err)
		}
		if err := parent.Delegate(childName, []dns.Name{nsName}, []dns.RR{{
			Name: nsName, Type: dns.TypeA, Class: dns.ClassIN, TTL: 3600,
			Data: &dns.AData{Addr: addr},
		}}); err != nil {
			t.Fatal(err)
		}
		if ds != nil {
			if err := parent.AttachDS(childName, ds); err != nil {
				t.Fatal(err)
			}
		}
	}
	tldDS, err := tld.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	orgDS, err := org.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	delegate(root, "test", miniTLD, tldDS)
	delegate(root, "org", miniOrg, orgDS)

	// Leaf zones.
	secure := sldZone(t, "secure.test", 10, true)
	island := sldZone(t, "island.test", 11, true)
	lonely := sldZone(t, "lonely.test", 12, true)
	plain := sldZone(t, "plain.test", 13, false)
	secureDS, err := secure.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	delegate(tld, "secure.test", miniHost, secureDS)
	delegate(tld, "island.test", miniHost, nil)
	delegate(tld, "lonely.test", miniHost, nil)
	delegate(tld, "plain.test", miniHost, nil)
	// glueless.test is delegated without glue: its server's address is
	// learned by resolving ns.plain.test first.
	glueless := sldZone(t, "glueless.test", 14, false)
	if err := plain.Add(dns.RR{
		Name: dns.MustName("ns.plain.test"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 3600,
		Data: &dns.AData{Addr: miniHost},
	}); err != nil {
		t.Fatal(err)
	}
	if err := tld.Delegate(dns.MustName("glueless.test"), []dns.Name{dns.MustName("ns.plain.test")}, nil); err != nil {
		t.Fatal(err)
	}

	// Registry path: org → isc.org → dlv.isc.org.
	isc, err := zone.New(zone.Config{Apex: dns.MustName("isc.org"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	signMini(t, isc, 4)
	iscDS, err := isc.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	delegate(org, "isc.org", miniISC, iscDS)

	reg, err := dlv.NewRegistry(dlv.Config{
		Apex:      dns.MustName("dlv.isc.org"),
		Algorithm: dnssec.AlgFastHMAC,
		Rand:      rand.New(rand.NewSource(5)),
		Inception: 0, Expiration: 1 << 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	u.registry = reg
	u.dlvAnchor, err = reg.TrustAnchorDS()
	if err != nil {
		t.Fatal(err)
	}
	islandDLV, err := island.DLV(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Deposit(dns.MustName("island.test"), islandDLV); err != nil {
		t.Fatal(err)
	}
	delegate(isc, "dlv.isc.org", miniRegistry, nil)

	serveMini(t, n, miniRoot, "root", simnet.RoleRoot, root)
	serveMini(t, n, miniTLD, "tld", simnet.RoleTLD, tld)
	serveMini(t, n, miniOrg, "org", simnet.RoleTLD, org)
	serveMini(t, n, miniHost, "host", simnet.RoleSLD, secure, island, lonely, plain, glueless)
	serveMini(t, n, miniISC, "isc", simnet.RoleSLD, isc)
	serveMini(t, n, miniRegistry, "registry", simnet.RoleDLV, reg.Zone())
	return u
}

// miniResolver builds a resolver against the mini universe.
func (u *miniUniverse) miniResolver(t *testing.T, mutate func(*Config)) *Resolver {
	t.Helper()
	cfg := Config{
		Addr:              resAddr,
		RootHints:         []netip.Addr{miniRoot},
		Net:               u.net,
		Clock:             u.net,
		ValidationEnabled: true,
		RootAnchor:        u.rootAnchor,
		Lookaside: &LookasideConfig{
			Zone:   dns.MustName("dlv.isc.org"),
			Anchor: u.dlvAnchor,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMiniChainedSecure(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(dns.MustName("secure.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSecure || res.UsedDLV {
		t.Fatalf("res = %+v", res)
	}
	if r.Stats().DLVQueries != 0 {
		t.Fatal("secure chain consulted the registry")
	}
}

// TestDSAskedOfParentAfterEviction holds one zone record. plain.test is
// resolved first, so the outcome of test is cached; reaching secure.test
// then evicts the cut of test, and the DS lookup, with no server for the
// parent, walks from the root. That walk must ask the parent, not the
// child whose cut is cached, which would deny the DS and leave a signed
// chain insecure.
func TestDSAskedOfParentAfterEviction(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, func(c *Config) { c.Limits = CacheLimits{Zones: 1} })
	for _, name := range []string{"plain.test", "secure.test"} {
		res, err := r.Resolve(dns.MustName(name), dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if name == "secure.test" && res.Status != StatusSecure {
			t.Fatalf("%s: %+v, want a secure answer", name, res)
		}
	}
}

func TestMiniIslandViaDLV(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(dns.MustName("island.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSecure || !res.UsedDLV {
		t.Fatalf("res = %+v", res)
	}
	// Cached on repeat: no second walk.
	q := r.Stats().DLVQueries
	if _, err := r.Resolve(dns.MustName("island.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if r.Stats().DLVQueries != q {
		t.Fatal("repeat resolution re-walked the registry")
	}
	// Another question in the zone reuses the zone's DLV-anchored outcome
	// without a walk, and still owes its validation to the registry.
	res, err = r.Resolve(dns.MustName("island.test"), dns.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSecure || !res.UsedDLV || r.Stats().DLVQueries != q {
		t.Fatalf("AAAA after A: res = %+v, %d new registry queries", res, r.Stats().DLVQueries-q)
	}
}

func TestMiniLonelyIslandInsecure(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(dns.MustName("lonely.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInsecure || res.UsedDLV {
		t.Fatalf("res = %+v", res)
	}
	if r.Stats().DLVQueries == 0 {
		t.Fatal("undeposited island was not looked up (no Case-2 leak)")
	}
}

func TestMiniPlainLeaksUnderLaxOnly(t *testing.T) {
	for _, policy := range []LookasidePolicy{PolicyOnFailure, PolicySignedOnly} {
		u := buildMini(t)
		r := u.miniResolver(t, func(c *Config) { c.Lookaside.Policy = policy })
		res, err := r.Resolve(dns.MustName("plain.test"), dns.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusInsecure {
			t.Fatalf("policy %s: status %s", policy, res.Status)
		}
		leaked := r.Stats().DLVQueries > 0
		if policy == PolicyOnFailure && !leaked {
			t.Error("lax policy did not consult the registry for an unsigned domain")
		}
		if policy == PolicySignedOnly && leaked {
			t.Error("strict policy consulted the registry for an unsigned domain")
		}
	}
}

func TestMiniNoDLVAnchorStillLeaksButCannotValidate(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, func(c *Config) { c.Lookaside.Anchor = nil })
	res, err := r.Resolve(dns.MustName("island.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedDLV || res.Status == StatusSecure {
		t.Fatalf("validated without a registry anchor: %+v", res)
	}
	if r.Stats().DLVQueries == 0 {
		t.Fatal("the query was not even sent — but the leak happens regardless of the anchor")
	}
}

// TestMiniMismatchedDeposit deposits for lonely.test a DLV record made
// from a key the zone does not hold: the look-aside walk finds and trusts
// the record, but it anchors none of the zone's keys, so the answer is
// bogus (SERVFAIL) rather than validated through the registry.
func TestMiniMismatchedDeposit(t *testing.T) {
	u := buildMini(t)
	lonely := dns.MustName("lonely.test")
	evil, _ := miniKeys(t, 99)
	ds, err := dnssec.MakeDS(lonely, evil.Public(), dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.registry.Deposit(lonely, &dns.DLVData{
		KeyTag: ds.KeyTag, Algorithm: ds.Algorithm, DigestType: ds.DigestType, Digest: ds.Digest,
	}); err != nil {
		t.Fatal(err)
	}
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(lonely, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBogus || res.RCode != dns.RCodeServFail || res.UsedDLV {
		t.Fatalf("res = %+v, want bogus SERVFAIL not via DLV", res)
	}
	if r.Stats().DLVQueries == 0 {
		t.Fatal("the deposit was never looked up")
	}
}

// TestMiniWrongDLVAnchor installs a DLV trust anchor that matches none of
// the registry's keys. The registry outcome is bogus, so its deposits are
// not trusted and its NSEC spans are not harvested: every walk still sends
// its queries, none is suppressed, and the deposited island stays
// unvalidated.
func TestMiniWrongDLVAnchor(t *testing.T) {
	u := buildMini(t)
	evil, _ := miniKeys(t, 99)
	badDS, err := dnssec.MakeDS(dns.MustName("dlv.isc.org"), evil.Public(), dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r := u.miniResolver(t, func(c *Config) { c.Lookaside.Anchor = badDS })
	res, err := r.Resolve(dns.MustName("island.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusSecure || res.UsedDLV {
		t.Fatalf("validated through a registry with a wrong anchor: %+v", res)
	}
	if out, ok := r.cache.outcome(dns.MustName("dlv.isc.org")); !ok || out.status != StatusBogus {
		t.Fatalf("registry outcome = %+v, want bogus", out)
	}
	// lonely.test and plain.test share a span of the registry's chain
	// (TestMiniAggressiveCacheSuppression), but no span was harvested.
	for _, name := range []string{"lonely.test", "plain.test"} {
		q := r.Stats().DLVQueries
		if _, err := r.Resolve(dns.MustName(name), dns.TypeA); err != nil {
			t.Fatal(err)
		}
		if r.Stats().DLVQueries == q {
			t.Fatalf("%s: no registry query sent", name)
		}
	}
	if st := r.Stats(); st.DLVSuppressed != 0 {
		t.Fatalf("DLVSuppressed = %d with an untrusted registry", st.DLVSuppressed)
	}
}

func TestMiniBogusRootAnchor(t *testing.T) {
	u := buildMini(t)
	evil, _ := miniKeys(t, 99)
	badDS, err := dnssec.MakeDS(dns.Root, evil.Public(), dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	r := u.miniResolver(t, func(c *Config) { c.RootAnchor = badDS })
	res, err := r.Resolve(dns.MustName("secure.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBogus || res.RCode != dns.RCodeServFail {
		t.Fatalf("res = %+v, want bogus SERVFAIL", res)
	}
}

func TestMiniValidationDisabled(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, func(c *Config) {
		c.ValidationEnabled = false
		c.Lookaside = nil
	})
	res, err := r.Resolve(dns.MustName("island.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 0 || len(res.Answer) == 0 {
		t.Fatalf("res = %+v", res)
	}
	if r.Stats().DLVQueries != 0 {
		t.Fatal("lookaside ran with validation off")
	}
}

func TestMiniNXDomainUnderSecureTLD(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(dns.MustName("missing.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %s", res.RCode)
	}
	if res.Status != StatusSecure {
		t.Fatalf("secure denial reported as %s", res.Status)
	}
}

func TestMiniAggressiveCacheSuppression(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	// lonely.test's miss caches an NSEC span; plain.test falls in a span
	// of the tiny registry too, so its walk is suppressed.
	if _, err := r.Resolve(dns.MustName("lonely.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	q := r.Stats().DLVQueries
	if _, err := r.Resolve(dns.MustName("plain.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.DLVQueries != q {
		t.Fatalf("expected suppression, got %d new queries", st.DLVQueries-q)
	}
	if st.DLVSuppressed == 0 {
		t.Fatal("suppression not counted")
	}

	// With aggressive caching disabled the second domain leaks.
	u2 := buildMini(t)
	r2 := u2.miniResolver(t, func(c *Config) { c.Lookaside.DisableAggressiveNegCache = true })
	if _, err := r2.Resolve(dns.MustName("lonely.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	q2 := r2.Stats().DLVQueries
	if _, err := r2.Resolve(dns.MustName("plain.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if r2.Stats().DLVQueries <= q2 {
		t.Fatal("no extra queries despite disabled aggressive caching")
	}
}

func TestMiniPTRAndNSCompletion(t *testing.T) {
	u := buildMini(t)
	// Serve a reverse tree so PTR sampling has a target.
	arpa, err := zone.New(zone.Config{Apex: dns.MustName("in-addr.arpa"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A couple of PTR records; unknown reverse names yield NXDOMAIN, which
	// is fine for the sampler.
	if err := arpa.Add(dns.RR{
		Name: dns.MustName("4.0.41.198.in-addr.arpa"), Type: dns.TypePTR, Class: dns.ClassIN, TTL: 300,
		Data: &dns.PTRData{Target: dns.MustName("root.host.example")},
	}); err != nil {
		t.Fatal(err)
	}
	arpaAddr := netip.MustParseAddr("199.180.180.63")
	rootZoneSrv := dns.MustName("ns.in-addr.arpa")
	// Delegate from the root (the root zone object is inside the universe;
	// rebuild is overkill — register the arpa server and point the
	// resolver at it via a direct delegation learned from a query instead).
	_ = rootZoneSrv
	serveMini(t, u.net, arpaAddr, "arpa", simnet.RoleOther, arpa)

	r := u.miniResolver(t, func(c *Config) {
		c.PTRSamplePercent = 100
		c.NSCompletionPercent = 100
	})
	// Seed the delegation cache so reverse lookups route to the arpa box.
	r.cache.storeDelegation(dns.MustName("in-addr.arpa"), &delegation{
		parent:  dns.Root,
		servers: []nsServer{{name: dns.MustName("ns.in-addr.arpa"), addr: arpaAddr}},
	})
	if _, err := r.Resolve(dns.MustName("secure.test"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	// The NS-completion and PTR plumbing ran without derailing resolution;
	// their side effects are cached.
	if r.CacheSizes().NSCompleted == 0 {
		t.Fatal("NS completion did not run")
	}
	if r.CacheSizes().Servers == 0 {
		t.Fatal("server tracking empty")
	}
}

func TestMiniHandlerEndToEnd(t *testing.T) {
	u := buildMini(t)
	r := u.miniResolver(t, nil)
	if err := u.net.Register(resAddr, "recursive", simnet.RoleRecursive, 0, r); err != nil {
		t.Fatal(err)
	}
	stub := netip.MustParseAddr("10.0.0.10")
	q := dns.NewQuery(1, dns.MustName("island.test"), dns.TypeA, true)
	resp, err := u.net.Exchange(stub, resAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.AD || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("stub response: %+v", resp.Header)
	}
}

func TestMiniWildcardValidates(t *testing.T) {
	u := buildMini(t)
	// secure.test gains a wildcard; a validating resolver must accept the
	// synthesized answer (RFC 4035 §5.3.2 wildcard reconstruction).
	r := u.miniResolver(t, nil)
	res, err := r.Resolve(dns.MustName("synthesized-name.secure.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// Without a wildcard this is NXDOMAIN…
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("pre-wildcard rcode = %s", res.RCode)
	}
	// …the wildcard flips it to a secure answer. (Fresh resolver: the
	// NXDOMAIN above is negatively cached.)
	u2 := buildMiniWithWildcard(t)
	r2 := u2.miniResolver(t, nil)
	res, err = r2.Resolve(dns.MustName("synthesized-name.secure.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) == 0 {
		t.Fatalf("wildcard res = %+v", res)
	}
	if res.Status != StatusSecure {
		t.Fatalf("wildcard answer status = %s, want secure", res.Status)
	}
}

// buildMiniWithWildcard rebuilds the mini universe with a wildcard A record
// inside secure.test.
func buildMiniWithWildcard(t *testing.T) *miniUniverse {
	t.Helper()
	u := buildMini(t)
	// Rebuild the secure.test zone with a wildcard and swap the host
	// server: easier to re-register than to reach inside. The zone keys
	// must match the DS in the TLD, so reuse the deterministic seed.
	z, err := zone.New(zone.Config{Apex: dns.MustName("secure.test"), Serial: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.AddSet(
		dns.RR{Name: dns.MustName("secure.test"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AData{Addr: netip.MustParseAddr("203.0.113.10")}},
		dns.RR{Name: dns.MustName("*.secure.test"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AData{Addr: netip.MustParseAddr("203.0.113.77")}},
	); err != nil {
		t.Fatal(err)
	}
	signMini(t, z, 10) // same seed as buildMini's secure.test → same keys
	srv, err := authserver.New(authserver.Config{Name: "host"}, z,
		sldZone(t, "island.test", 11, true),
		sldZone(t, "lonely.test", 12, true),
		sldZone(t, "plain.test", 13, false))
	if err != nil {
		t.Fatal(err)
	}
	u.net.Replace(miniHost, "host", simnet.RoleSLD, 0, srv)
	return u
}

func TestMiniEnclosingWalkForDeepNames(t *testing.T) {
	// Under the missing-anchor misconfiguration a deep NXDOMAIN name is
	// walked through the registry label by label (RFC 5074 §4.1) — this is
	// how the paper's bbs.sub1.example.com example multiplies leakage.
	u := buildMini(t)
	r := u.miniResolver(t, func(c *Config) { c.RootAnchor = nil })
	var dlvNames []dns.Name
	u.net.AddTap(func(ev simnet.Event) {
		if ev.DstRole == simnet.RoleDLV && ev.Question.Type == dns.TypeDLV {
			dlvNames = append(dlvNames, ev.Question.Name)
		}
	})
	res, err := r.Resolve(dns.MustName("bbs.sub1.plain.test"), dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %s", res.RCode)
	}
	if len(dlvNames) < 2 {
		t.Fatalf("expected a multi-step enclosing walk, saw %v", dlvNames)
	}
	// The first step exposes the full deep name.
	if dlvNames[0].FirstLabel() != "bbs" {
		t.Fatalf("walk did not start at the deepest name: %v", dlvNames)
	}
}
