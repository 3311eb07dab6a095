// Package universe assembles the full simulated internet the experiments
// run against: a signed root, the TLD zones with their delegation and DS
// state, lazily materialized SLD zones on shared hosting servers, the DLV
// registry with its deposits, a reverse (in-addr.arpa) tree, and the
// network addresses and latencies of every party.
//
// The universe substitutes for the live Internet plus ISC's now-retired
// registry (see DESIGN.md §2): what matters to the paper — which wire
// queries reach which parties under which resolver configuration — is
// preserved because all parties exchange real wire-format messages.
package universe

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// Well-known simulation addresses.
var (
	// RootAddr hosts the root zone.
	RootAddr = netip.MustParseAddr("198.41.0.4")
	// RegistryAddr hosts the DLV registry.
	RegistryAddr = netip.MustParseAddr("149.20.64.1")
	// ArpaAddr hosts the reverse tree.
	ArpaAddr = netip.MustParseAddr("199.180.180.63")
	// ISCAddr hosts the isc.org zone that delegates the registry.
	ISCAddr = netip.MustParseAddr("149.20.1.73")
	// ResolverAddr is where experiments register the recursive resolver.
	ResolverAddr = netip.MustParseAddr("10.0.0.53")
	// StubAddr is the stub client the workload is issued from.
	StubAddr = netip.MustParseAddr("10.0.0.10")
)

// Link latencies (one-way).
const (
	rootLatency     = 15 * time.Millisecond
	tldLatency      = 20 * time.Millisecond
	hostLatency     = 28 * time.Millisecond
	registryLatency = 40 * time.Millisecond
	stubLatency     = 2 * time.Millisecond
)

// signatureWindow is the validity window used for every signature in the
// universe (logical clocks start at zero).
const (
	sigInception  uint32 = 0
	sigExpiration uint32 = 1 << 31
)

// Options configures universe construction.
type Options struct {
	// Seed drives key generation and topology jitter.
	Seed int64
	// Algorithm is the signing scheme (default dnssec.AlgFastHMAC; use
	// dnssec.AlgECDSAP256 for small, fully-real-crypto universes).
	Algorithm uint8
	// Population is the Alexa-like domain set; required.
	Population *dataset.Population
	// Extra adds out-of-population domains (the 45 secured domains).
	Extra []dataset.Domain
	// RegistryNSEC3 serves registry denials with NSEC3 (§7.3 ablation).
	RegistryNSEC3 bool
	// RegistryHashed runs the privacy-preserving deposit scheme (§6.2.2).
	RegistryHashed bool
	// RegistryEmpty models ISC's phase-out: no deposits retained (§7.3.2).
	RegistryEmpty bool
	// TXTRemedy / ZBitRemedy arm the authoritative half of the DLV-aware
	// DNS remedies on every hosting server (§6.2.1).
	TXTRemedy  bool
	ZBitRemedy bool
	// CorruptDS lists domains whose parent-side DS is replaced with a
	// digest of the wrong key — the bogus-chain failure injection (the
	// zone-poisoning scenario of §6.2.3's attack analysis).
	CorruptDS []dns.Name
	// ZoneCacheCap bounds the lazily built SLD zones kept in memory
	// (default 8192).
	ZoneCacheCap int
	// PacketCacheCap bounds every authoritative server's wire-response
	// cache (0 keeps the authserver default). Sweep workloads query each
	// domain exactly once, so per-domain cache entries never pay for
	// themselves; a small cap keeps the per-server footprint flat.
	PacketCacheCap int
}

// domainKeys holds the signing keys of a signed SLD.
type domainKeys struct {
	ksk, zsk *dnssec.KeyPair
}

// Universe is the assembled simulation.
type Universe struct {
	Net      *simnet.Network
	Registry *dlv.Registry

	// RootAnchor is the root trust anchor (DS form) a correctly configured
	// resolver installs; DLVAnchor is the registry anchor from bind.keys.
	RootAnchor *dns.DSData
	DLVAnchor  *dns.DSData

	// RegistryZone is the look-aside zone name (dlv.isc.org.).
	RegistryZone dns.Name

	opts Options
	// eager materializes every TLD delegation, parent-side DS, pool glue
	// record, and registry deposit at build time instead of deriving them
	// on first query. It is the lazy path's reference: only the package's
	// test export sets it, and TestLazyEagerEquivalence pins that both
	// serve byte-identical responses.
	eager bool
	root  *zone.Zone
	tlds  map[string]*zone.Zone
	// isc is the isc.org zone that delegates the registry; retained so the
	// warm-state snapshot can carry its signature state alongside the root,
	// TLD, and registry zones (see InfraZones).
	isc *zone.Zone
	// extras are the out-of-population domains, overriding population
	// entries of the same name; population domains resolve through
	// Population.Lookup (see lookupDomain).
	extras      map[dns.Name]*dataset.Domain
	domainCount int
	// groups is the population grouped by TLD for the lazy TLD indexes.
	groups tldGroups

	keyMu sync.Mutex
	keys  map[dns.Name]*domainKeys

	sldZones  *sldCache
	hostPools int
	corruptDS map[dns.Name]bool

	rng *rand.Rand
}

// Build assembles a universe.
func Build(opts Options) (*Universe, error) { return build(opts, false) }

func build(opts Options, eager bool) (*Universe, error) {
	if opts.Population == nil {
		return nil, errors.New("universe: population is required")
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = dnssec.AlgFastHMAC
	}
	if opts.ZoneCacheCap == 0 {
		opts.ZoneCacheCap = 8192
	}
	u := &Universe{
		Net:          simnet.New(),
		RegistryZone: dns.MustName("dlv.isc.org"),
		opts:         opts,
		eager:        eager,
		tlds:         make(map[string]*zone.Zone),
		extras:       make(map[dns.Name]*dataset.Domain, len(opts.Extra)),
		keys:         make(map[dns.Name]*domainKeys),
		sldZones:     newSLDCache(opts.ZoneCacheCap),
		corruptDS:    make(map[dns.Name]bool, len(opts.CorruptDS)),
		rng:          rand.New(rand.NewSource(opts.Seed)),
	}
	for _, name := range opts.CorruptDS {
		u.corruptDS[name] = true
	}
	// One shared hosting server per ~256 domains, clamped to [4, 2048].
	u.hostPools = min(max(len(opts.Population.Domains)/256, 4), 2048)

	// Index only the extras; population domains resolve through the
	// population's own name index. The count matches the eager-era merged
	// map: extras colliding with a population name count once.
	for i := range opts.Extra {
		d := &opts.Extra[i]
		u.extras[d.Name] = d
	}
	u.domainCount = len(opts.Extra)
	for i := range opts.Population.Domains {
		if _, ok := u.extras[opts.Population.Domains[i].Name]; !ok {
			u.domainCount++
		}
	}

	if err := u.buildRegistry(); err != nil {
		return nil, err
	}
	if err := u.buildRoot(); err != nil {
		return nil, err
	}
	if err := u.buildTLDs(); err != nil {
		return nil, err
	}
	if err := u.buildHosting(); err != nil {
		return nil, err
	}
	if err := u.buildRegistryPath(); err != nil {
		return nil, err
	}
	if err := u.buildArpa(); err != nil {
		return nil, err
	}
	return u, nil
}

// genKeys creates (or returns) the key pair of a signed domain,
// deterministically in the universe seed and domain name.
func (u *Universe) genKeys(name dns.Name) (*domainKeys, error) {
	u.keyMu.Lock()
	defer u.keyMu.Unlock()
	if k, ok := u.keys[name]; ok {
		return k, nil
	}
	seed := u.opts.Seed ^ int64(hash64(string(name)))
	rng := rand.New(rand.NewSource(seed))
	ksk, err := dnssec.GenerateKey(u.opts.Algorithm, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		return nil, fmt.Errorf("universe: ksk for %s: %w", name, err)
	}
	zsk, err := dnssec.GenerateKey(u.opts.Algorithm, dns.DNSKEYFlagZone, rng)
	if err != nil {
		return nil, fmt.Errorf("universe: zsk for %s: %w", name, err)
	}
	k := &domainKeys{ksk: ksk, zsk: zsk}
	u.keys[name] = k
	return k, nil
}

// signZone signs a zone with fresh per-apex keys.
func (u *Universe) signZone(z *zone.Zone) error {
	k, err := u.genKeys(z.Apex())
	if err != nil {
		return err
	}
	return z.Sign(zone.SignConfig{
		KSK: k.ksk, ZSK: k.zsk,
		Inception: sigInception, Expiration: sigExpiration,
		Rand: rand.New(rand.NewSource(u.opts.Seed ^ 0x5157 ^ int64(hash64(string(z.Apex()))))),
	})
}

// buildRegistry creates the DLV registry and its deposits.
func (u *Universe) buildRegistry() error {
	reg, err := dlv.NewRegistry(dlv.Config{
		Apex:      u.RegistryZone,
		Algorithm: u.opts.Algorithm,
		Rand:      rand.New(rand.NewSource(u.opts.Seed ^ 0xD17)),
		Inception: sigInception, Expiration: sigExpiration,
		NSEC3:  u.opts.RegistryNSEC3,
		Hashed: u.opts.RegistryHashed,
		Empty:  u.opts.RegistryEmpty,
	})
	if err != nil {
		return err
	}
	u.Registry = reg
	anchor, err := reg.TrustAnchorDS()
	if err != nil {
		return err
	}
	u.DLVAnchor = anchor

	if u.opts.RegistryEmpty {
		return nil
	}
	if !u.eager {
		// Lazy path: the deposit set is derived on first query. One synth
		// source backs both the registry zone's records and the registry's
		// deposit-membership index.
		idx := &regSynth{u: u}
		reg.Zone().AttachSynth(idx)
		reg.AttachDepositIndex(idx)
		return nil
	}
	return u.eachDomain(func(d *dataset.Domain) error {
		if !d.InDLV || !d.Signed {
			return nil
		}
		k, err := u.genKeys(d.Name)
		if err != nil {
			return err
		}
		rec, err := dnssec.MakeDLV(d.Name, k.ksk.Public(), dnssec.DigestSHA256)
		if err != nil {
			return fmt.Errorf("universe: dlv record for %s: %w", d.Name, err)
		}
		return reg.Deposit(d.Name, rec)
	})
}

// buildRoot creates and signs the root zone and its server.
func (u *Universe) buildRoot() error {
	root, err := zone.New(zone.Config{Apex: dns.Root, Serial: 1})
	if err != nil {
		return err
	}
	u.root = root
	if err := u.signZone(root); err != nil {
		return err
	}
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		return err
	}
	u.RootAnchor = anchor

	srv, err := authserver.New(authserver.Config{Name: "a.root-servers.net", PacketCacheCap: u.opts.PacketCacheCap}, root)
	if err != nil {
		return err
	}
	return u.Net.Register(RootAddr, "a.root-servers.net", simnet.RoleRoot, rootLatency, srv)
}

// tldAddr derives the server address of a TLD.
func tldAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{192, 5, byte(6 + i/200), byte(1 + i%200)})
}

// poolAddr derives the address of a hosting pool.
func poolAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 50, byte(i / 250), byte(1 + i%250)})
}

// forcedSignedTLDs must be signed regardless of the random draw: the
// secured-domain list of §5.2 needs chain-complete parents, and the
// registry path lives under org.
var forcedSignedTLDs = map[string]bool{"org": true, "net": true, "edu": true}

// buildTLDs creates the TLD zones with their delegations.
func (u *Universe) buildTLDs() error {
	signedMap := u.opts.Population.TLDSignedMap()
	for label := range forcedSignedTLDs {
		signedMap[label] = true
	}
	// Extras may reference TLDs missing from the population map.
	for _, d := range u.opts.Extra {
		if _, ok := signedMap[d.TLD()]; !ok {
			signedMap[d.TLD()] = true
		}
	}

	// Stable order for address assignment.
	labels := make([]string, 0, len(signedMap))
	for label := range signedMap {
		labels = append(labels, label)
	}
	sortStrings(labels)

	for i, label := range labels {
		apex, err := dns.MakeName(label)
		if err != nil {
			return err
		}
		z, err := zone.New(zone.Config{Apex: apex, Serial: 1})
		if err != nil {
			return err
		}
		if signedMap[label] {
			if err := u.signZone(z); err != nil {
				return err
			}
			ds, err := z.DS(dnssec.DigestSHA256)
			if err != nil {
				return err
			}
			if err := u.delegateFromRoot(apex, tldAddr(i), ds); err != nil {
				return err
			}
		} else {
			if err := u.delegateFromRoot(apex, tldAddr(i), nil); err != nil {
				return err
			}
		}
		u.tlds[label] = z
		if !u.eager {
			// Delegations, DS deposits, and pool glue derive on first query.
			z.AttachSynth(&tldSynth{u: u, label: label, signed: signedMap[label]})
		}

		srv, err := authserver.New(authserver.Config{Name: "ns1." + label, PacketCacheCap: u.opts.PacketCacheCap}, z)
		if err != nil {
			return err
		}
		lat := tldLatency + time.Duration(hash64(label)%10)*time.Millisecond
		if err := u.Net.Register(tldAddr(i), "ns1."+label, simnet.RoleTLD, lat, srv); err != nil {
			return err
		}
	}
	return nil
}

// delegateFromRoot adds the TLD cut to the root zone.
func (u *Universe) delegateFromRoot(apex dns.Name, addr netip.Addr, ds *dns.DSData) error {
	nsName, err := apex.Prepend("ns1")
	if err != nil {
		return err
	}
	glue := []dns.RR{{
		Name: nsName, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
		Data: &dns.AData{Addr: addr},
	}}
	if err := u.root.Delegate(apex, []dns.Name{nsName}, glue); err != nil {
		return err
	}
	if ds != nil {
		if err := u.root.AttachDS(apex, ds); err != nil {
			return err
		}
	}
	return nil
}

// hash64 is a small FNV-1a for deterministic assignment decisions.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
