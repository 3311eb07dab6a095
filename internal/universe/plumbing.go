package universe

import (
	"fmt"
	"net/netip"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// buildRegistryPath wires the registry into the hierarchy: org delegates
// isc.org, and isc.org delegates dlv.isc.org to the registry server.
func (u *Universe) buildRegistryPath() error {
	orgZone, ok := u.tlds["org"]
	if !ok {
		return fmt.Errorf("universe: org TLD missing, cannot place %s", u.RegistryZone)
	}
	iscApex := dns.MustName("isc.org")
	iscZone, err := zone.New(zone.Config{Apex: iscApex, Serial: 1})
	if err != nil {
		return err
	}
	if err := u.signZone(iscZone); err != nil {
		return err
	}
	u.isc = iscZone

	// org → isc.org, with DS (isc.org chains to the root).
	iscNS := dns.MustName("ns1.isc.org")
	if err := orgZone.Delegate(iscApex, []dns.Name{iscNS}, []dns.RR{{
		Name: iscNS, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
		Data: &dns.AData{Addr: ISCAddr},
	}}); err != nil {
		return err
	}
	iscDS, err := iscZone.DS(dnssecDigest)
	if err != nil {
		return err
	}
	if err := orgZone.AttachDS(iscApex, iscDS); err != nil {
		return err
	}

	// isc.org → dlv.isc.org at the registry server. No DS: the registry
	// anchors through the separately distributed DLV trust anchor, like
	// the historical deployment.
	regNS := dns.MustName("ns.dlv.isc.org")
	if err := iscZone.Delegate(u.RegistryZone, []dns.Name{regNS}, []dns.RR{{
		Name: regNS, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
		Data: &dns.AData{Addr: RegistryAddr},
	}}); err != nil {
		return err
	}

	iscSrv, err := authserver.New(authserver.Config{Name: "ns1.isc.org", PacketCacheCap: u.opts.PacketCacheCap}, iscZone)
	if err != nil {
		return err
	}
	if err := u.Net.Register(ISCAddr, "ns1.isc.org", simnet.RoleSLD, hostLatency, iscSrv); err != nil {
		return err
	}

	regSrv, err := authserver.New(authserver.Config{Name: "dlv.isc.org", PacketCacheCap: u.opts.PacketCacheCap}, u.Registry.Zone())
	if err != nil {
		return err
	}
	return u.Net.Register(RegistryAddr, "dlv.isc.org", simnet.RoleDLV, registryLatency, regSrv)
}

// arpaSource generatively answers reverse lookups: every PTR query under
// in-addr.arpa resolves to a synthetic host name, mirroring how the paper's
// capture sees small numbers of PTR queries from the resolver.
type arpaSource struct {
	apex dns.Name
}

// Apex implements authserver.Source.
func (a *arpaSource) Apex() dns.Name { return a.apex }

// Lookup implements authserver.Source.
func (a *arpaSource) Lookup(qname dns.Name, qtype dns.Type, _ bool) (*zone.Result, error) {
	if qtype != dns.TypePTR {
		return &zone.Result{Kind: zone.KindNoData, RCode: dns.RCodeNoError}, nil
	}
	target, err := dns.MakeName(fmt.Sprintf("host-%x.rev.example", hash64(string(qname))&0xFFFFFF))
	if err != nil {
		return nil, err
	}
	return &zone.Result{
		Kind:  zone.KindAnswer,
		RCode: dns.RCodeNoError,
		Answer: []dns.RR{{
			Name: qname, Type: dns.TypePTR, Class: dns.ClassIN, TTL: 3600,
			Data: &dns.PTRData{Target: target},
		}},
	}, nil
}

// buildArpa wires the reverse tree.
func (u *Universe) buildArpa() error {
	apex := dns.MustName("in-addr.arpa")
	nsName := dns.MustName("ns.in-addr.arpa")
	if err := u.root.Delegate(apex, []dns.Name{nsName}, []dns.RR{{
		Name: nsName, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
		Data: &dns.AData{Addr: ArpaAddr},
	}}); err != nil {
		return err
	}
	srv, err := authserver.New(authserver.Config{Name: "ns.in-addr.arpa", PacketCacheCap: u.opts.PacketCacheCap}, &arpaSource{apex: apex})
	if err != nil {
		return err
	}
	return u.Net.Register(ArpaAddr, "ns.in-addr.arpa", simnet.RoleOther, tldLatency, srv)
}

// dnssecDigest is the digest type used throughout the universe.
const dnssecDigest = 2 // SHA-256

// ResolverConfig builds a resolver.Config wired to this universe with the
// requested trust-anchor and look-aside state. Callers may further adjust
// the returned config before constructing the resolver.
func (u *Universe) ResolverConfig(withRootAnchor, withLookaside bool) resolver.Config {
	cfg := resolver.Config{
		Addr:                ResolverAddr,
		RootHints:           []netip.Addr{RootAddr},
		Net:                 u.Net,
		Clock:               u.Net,
		ValidationEnabled:   true,
		NSCompletionPercent: 30,
		PTRSamplePercent:    40,
	}
	if withRootAnchor {
		cfg.RootAnchor = u.RootAnchor
	}
	if withLookaside {
		cfg.Lookaside = &resolver.LookasideConfig{
			Zone:   u.RegistryZone,
			Anchor: u.DLVAnchor,
			Policy: resolver.PolicyOnFailure,
			Hashed: u.opts.RegistryHashed,
		}
	}
	return cfg
}

// StartResolver starts a resolver on the network's own clock domain (see
// StartShardResolver). Installing replaces any previous resolver there, so
// experiment sweeps can start a fresh instance (empty caches) per data
// point.
func (u *Universe) StartResolver(cfg resolver.Config) (*resolver.Resolver, error) {
	return u.StartShardResolver(u.Net.Root(), cfg)
}

// StubQuery issues one stub query through the network to the recursive
// resolver, as the measurement host does.
func (u *Universe) StubQuery(id uint16, name dns.Name, qtype dns.Type) (*dns.Message, error) {
	return u.Net.Exchange(StubAddr, ResolverAddr, dns.NewQuery(id, name, qtype, true))
}

// NewShard creates an isolated clock domain over the universe's network;
// sharded audits give each worker one, with its own resolver.
func (u *Universe) NewShard() *simnet.Shard {
	return u.Net.NewShard()
}

// StartShardResolver constructs a resolver wired to the shard — it
// exchanges through the shard and reads the shard's clock — and registers
// it at ResolverAddr in the shard's private overlay, where only that
// shard's exchanges reach it.
func (u *Universe) StartShardResolver(sh *simnet.Shard, cfg resolver.Config) (*resolver.Resolver, error) {
	cfg.Net = sh
	cfg.Clock = sh
	r, err := resolver.New(cfg)
	if err != nil {
		return nil, err
	}
	sh.Register(ResolverAddr, "recursive", simnet.RoleRecursive, stubLatency, r)
	return r, nil
}

// Domain returns the spec of a domain in the universe.
func (u *Universe) Domain(name dns.Name) (*dataset.Domain, bool) {
	return u.lookupDomain(name)
}

// DomainCount returns the number of domains the universe serves.
func (u *Universe) DomainCount() int { return u.domainCount }

// CachedSLDZones returns how many SLD zones are currently materialized
// (memory introspection for the sweep experiment).
func (u *Universe) CachedSLDZones() int { return u.sldZones.len() }

// TLDLabels returns the TLD labels of the universe in address order (the
// order buildTLDs assigned them).
func (u *Universe) TLDLabels() []string {
	labels := make([]string, 0, len(u.tlds))
	for l := range u.tlds {
		labels = append(labels, l)
	}
	sortStrings(labels)
	return labels
}

// InfraName reports whether a DNS name belongs to shared infrastructure —
// the root, a TLD apex, the registry path (isc.org / dlv.isc.org), or the
// reverse tree — rather than to an individual population domain.
// core.WarmInfra uses it to filter what may enter the shared, read-mostly
// infrastructure cache: per-domain state must stay out so worker-local
// caches remain the only place population answers live.
func (u *Universe) InfraName(n dns.Name) bool {
	if n.IsRoot() || n.LabelCount() <= 1 {
		return true
	}
	if u.RegistryZone.IsSubdomainOf(n) || n.IsSubdomainOf(u.RegistryZone) {
		return true
	}
	return n.IsSubdomainOf(dns.MustName("in-addr.arpa"))
}

// HostPools returns the number of hosting servers.
func (u *Universe) HostPools() int { return u.hostPools }

// TLDAddr returns the server address of a TLD (for failure injection).
func (u *Universe) TLDAddr(label string) (netip.Addr, bool) {
	if _, ok := u.tlds[label]; !ok {
		return netip.Addr{}, false
	}
	labels := make([]string, 0, len(u.tlds))
	for l := range u.tlds {
		labels = append(labels, l)
	}
	sortStrings(labels)
	for i, l := range labels {
		if l == label {
			return tldAddr(i), true
		}
	}
	return netip.Addr{}, false
}

// Latency constants exposed for experiment documentation.
const (
	RootLatency     = rootLatency
	TLDLatency      = tldLatency
	HostLatency     = hostLatency
	RegistryLatency = registryLatency
	StubLatency     = stubLatency
)
