package universe

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// dsFromKey derives the SHA-256 DS of a domain's KSK.
func dsFromKey(name dns.Name, k *domainKeys) (*dns.DSData, error) {
	return dnssec.MakeDS(name, k.ksk.Public(), dnssec.DigestSHA256)
}

// newZoneRand derives a deterministic signing-randomness source per zone.
func newZoneRand(seed int64, name dns.Name) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x2A17 ^ int64(hash64(string(name)))))
}

// pool returns the hosting pool index of a domain.
func (u *Universe) pool(name dns.Name) int {
	return int(hash64(string(name)) % uint64(u.hostPools))
}

// poolNSName returns the in-bailiwick name-server name a TLD uses for a
// hosting pool, e.g. pool7.nic.com.
func poolNSName(pool int, tld string) (dns.Name, error) {
	return dns.MakeName("pool" + strconv.Itoa(pool) + ".nic." + tld)
}

// buildHosting delegates every SLD from its TLD zone to a hosting pool and
// registers the pool servers.
func (u *Universe) buildHosting() error {
	// Register pool servers first.
	for p := 0; p < u.hostPools; p++ {
		srv, err := u.newPoolServer(p)
		if err != nil {
			return err
		}
		lat := hostLatency + time.Duration(hash64(fmt.Sprint("pool", p))%25)*time.Millisecond
		name := fmt.Sprintf("pool%d.hosting.example", p)
		if err := u.Net.Register(poolAddr(p), name, simnet.RoleSLD, lat, srv); err != nil {
			return err
		}
	}

	if !u.eager {
		// Lazy path: each TLD zone carries a tldSynth that derives its
		// delegations, DS deposits, and pool glue on first query.
		return nil
	}

	// Glue per (tld, pool) pair is added once; delegations reference it.
	glueAdded := make(map[string]bool)
	return u.eachDomain(func(d *dataset.Domain) error {
		name, tld := d.Name, d.TLD()
		tz, ok := u.tlds[tld]
		if !ok {
			return fmt.Errorf("universe: domain %s references unknown TLD %q", name, tld)
		}
		p := u.pool(name)
		nsName, err := poolNSName(p, tld)
		if err != nil {
			return err
		}
		glueKey := tld + "/" + fmt.Sprint(p)
		if !glueAdded[glueKey] {
			glueAdded[glueKey] = true
			if err := tz.Add(dns.RR{
				Name: nsName, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
				Data: &dns.AData{Addr: poolAddr(p)},
			}); err != nil {
				return err
			}
		}
		if err := tz.Delegate(name, []dns.Name{nsName}, nil); err != nil {
			return err
		}
		if d.Signed && d.DSInParent && tz.IsSigned() {
			k, err := u.genKeys(name)
			if err != nil {
				return err
			}
			if u.corruptDS[name] {
				// Failure injection: deposit a DS for a key the zone does
				// not hold, breaking the chain into a bogus outcome.
				evil, err := u.genKeys(dns.MustName("evil.invalid"))
				if err != nil {
					return err
				}
				k = evil
			}
			ds, err := u.dsFor(name, k)
			if err != nil {
				return err
			}
			if err := tz.AttachDS(name, ds); err != nil {
				return err
			}
		}
		return nil
	})
}

// dsFor computes the DS of a domain's KSK.
func (u *Universe) dsFor(name dns.Name, k *domainKeys) (*dns.DSData, error) {
	ds, err := dsFromKey(name, k)
	if err != nil {
		return nil, fmt.Errorf("universe: ds for %s: %w", name, err)
	}
	return ds, nil
}

// SLDZone returns (building lazily) the authoritative zone of a domain.
// The cache is sharded with singleflight semantics, so a worker pool
// hammering fresh apexes builds each zone once and never serializes on a
// global lock.
func (u *Universe) SLDZone(d *dataset.Domain) (*zone.Zone, error) {
	return u.sldZones.get(d.Name, func() (*zone.Zone, error) {
		return u.buildSLDZone(d)
	})
}

// buildSLDZone materializes one SLD zone from its spec.
func (u *Universe) buildSLDZone(d *dataset.Domain) (*zone.Zone, error) {
	p := u.pool(d.Name)
	primary, err := poolNSName(p, d.TLD())
	if err != nil {
		return nil, err
	}
	z, err := zone.New(zone.Config{Apex: d.Name, PrimaryNS: primary, Serial: 1})
	if err != nil {
		return nil, err
	}
	// The web-facing records: A at the apex (the name the stub queries)
	// and at www.
	apexA := dns.RR{
		Name: d.Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: siteAddr(d.Name)},
	}
	www, err := d.Name.Prepend("www")
	if err != nil {
		return nil, err
	}
	wwwA := dns.RR{
		Name: www, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: siteAddr(www)},
	}
	if err := z.AddSet(apexA, wwwA); err != nil {
		return nil, err
	}
	// About half the population is IPv6-enabled; deterministic per domain.
	if hash64(string(d.Name))%2 == 0 {
		if err := z.Add(dns.RR{
			Name: d.Name, Type: dns.TypeAAAA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AAAAData{Addr: siteAddr6(d.Name)},
		}); err != nil {
			return nil, err
		}
	}
	if d.Signed {
		k, err := u.genKeys(d.Name)
		if err != nil {
			return nil, err
		}
		if err := z.Sign(zone.SignConfig{
			KSK: k.ksk, ZSK: k.zsk,
			Inception: sigInception, Expiration: sigExpiration,
			Rand: newZoneRand(u.opts.Seed, d.Name),
		}); err != nil {
			return nil, err
		}
	}
	return z, nil
}

// siteAddr derives a deterministic IPv4 website address.
func siteAddr(name dns.Name) netip.Addr {
	h := hash64(string(name))
	return netip.AddrFrom4([4]byte{203, byte(h >> 16), byte(h >> 8), byte(h)})
}

// siteAddr6 derives a deterministic IPv6 website address.
func siteAddr6(name dns.Name) netip.Addr {
	h := hash64(string(name))
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = 0x0d, 0xb8
	for i := 0; i < 8; i++ {
		b[8+i] = byte(h >> (8 * i))
	}
	return netip.AddrFrom16(b)
}

// newPoolServer builds the server of one hosting pool: it answers every
// population SLD the pool hosts, materialized on demand, and refuses the
// rest. Each pool carries its own packet cache and the universe's remedy
// config (the registry exists by this point in the build sequence). Cached
// responses stay valid across the zone cache's evict-and-rebuild cycle
// because rebuilding a zone replays the same deterministic mutation
// sequence, yielding the same generation.
func (u *Universe) newPoolServer(pool int) (*authserver.Server, error) {
	route := func(qname dns.Name) (authserver.Source, error) {
		d, ok := u.domainOf(qname)
		if !ok || u.pool(d.Name) != pool {
			return nil, nil
		}
		z, err := u.SLDZone(d)
		if err != nil {
			return nil, err
		}
		return z, nil
	}
	return authserver.NewRouted(authserver.Config{
		Name:           fmt.Sprintf("pool%d", pool),
		TXTRemedy:      u.opts.TXTRemedy,
		ZBitRemedy:     u.opts.ZBitRemedy,
		Signaler:       u.Registry,
		PacketCacheCap: u.opts.PacketCacheCap,
	}, route)
}

// domainOf maps a query name to the population SLD owning it (the last two
// labels).
func (u *Universe) domainOf(qname dns.Name) (*dataset.Domain, bool) {
	n := qname
	for n.LabelCount() > 2 {
		n = n.Parent()
	}
	if n.LabelCount() != 2 {
		return nil, false
	}
	return u.lookupDomain(n)
}
