// Package zone implements the authoritative zone model: record storage,
// delegation cuts with glue, DNSSEC signing (ZSK/KSK split, NSEC chains,
// DS export), and the lookup state machine that authoritative servers
// expose (answer, referral, NXDOMAIN, NODATA — each with the proofs a
// validating resolver needs).
//
// Signatures are produced lazily and memoized: a TLD zone in the simulated
// internet can delegate hundreds of thousands of children, and only the
// RRsets actually served need signing. The NSEC chain is likewise
// materialized on demand from the canonically-sorted owner-name index.
package zone

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/gencache"
)

// genCacheSpan is how many inserts one generation of a zone's derived-state
// caches (materialized records, memoized signatures) takes. A zone re-asks
// for derived state only within one resolution — the DS query that follows
// a referral by microseconds — so the span need only outlast the
// resolutions in flight; it does not scale with the zone's population.
const genCacheSpan = 2048

// genCacheCap is the most entries one of those caches ever holds.
const genCacheCap = 2 * genCacheSpan

// Zone errors.
var (
	ErrOutOfZone    = errors.New("zone: name out of zone")
	ErrNotSigned    = errors.New("zone: zone is not signed")
	ErrDuplicateSOA = errors.New("zone: zone already has a SOA")
	ErrNoSuchCut    = errors.New("zone: no such delegation")
)

// DefaultTTL is applied to records added without an explicit TTL.
const DefaultTTL uint32 = 3600

// negativeTTL is the SOA minimum used for negative caching.
const negativeTTL uint32 = 900

// Config configures a new zone.
type Config struct {
	// Apex is the zone origin, e.g. "com." or "dlv.isc.org.".
	Apex dns.Name
	// PrimaryNS is the master server name placed in the SOA; defaults to
	// ns1.<apex>.
	PrimaryNS dns.Name
	// Serial seeds the SOA serial.
	Serial uint32
	// TTL is the default record TTL; DefaultTTL when zero.
	TTL uint32
}

// Zone is a single authoritative zone. All methods are safe for concurrent
// use.
type Zone struct {
	mu sync.RWMutex

	apex dns.Name
	ttl  uint32

	records map[dns.Key][]dns.RR
	// typesByName indexes the record types present at each owner name.
	typesByName map[dns.Name][]dns.Type
	// names is the canonically ordered list of owner names that exist in
	// the zone (authoritative data and delegation points). It is sorted
	// lazily: bulk loading appends and marks namesDirty, and the first
	// chain operation sorts.
	names      []dns.Name
	namesDirty bool
	// nameSet mirrors names for O(1) existence checks.
	nameSet map[dns.Name]bool
	// cuts marks delegation points (child zone apexes).
	cuts map[dns.Name]bool

	// gen counts content mutations (inserts, delegations, signing state).
	// Packet caches key cached responses on it so a mutated zone — e.g.
	// the DLV registry after a Deposit — is never served stale.
	gen uint64

	// synth lazily extends the zone with derivable owner names (see
	// synth.go). synthKeys/synthOff/synthKind/synthAux are the sorted owner
	// index, built on first use; synthRecords holds the records of recently
	// materialized owners. Neither affects gen: a synth-backed zone serves
	// the same bytes whether or not a name's records are currently held.
	synth        SynthSource
	synthReady   bool
	synthKeys    []byte
	synthOff     []uint32
	synthKind    []SynthKind
	synthAux     []uint32
	synthRecords gencache.Cache[dns.Name, []dns.RR]

	signed     bool
	nsec3      bool
	nsec3Salt  []byte
	nsec3Iter  uint16
	ksk, zsk   *dnssec.KeyPair
	inception  uint32
	expiration uint32
	rng        io.Reader
	// sigCache memoizes the RRSIGs of recently served RRsets.
	sigCache gencache.Cache[dns.Key, dns.RR]
}

// New creates an empty zone with its SOA and apex NS record.
func New(cfg Config) (*Zone, error) {
	if cfg.Apex == "" {
		return nil, errors.New("zone: empty apex")
	}
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	primary := cfg.PrimaryNS
	if primary == "" {
		var err error
		if cfg.Apex.IsRoot() {
			primary, err = dns.MakeName("a.root-servers.net")
		} else {
			primary, err = cfg.Apex.Prepend("ns1")
		}
		if err != nil {
			return nil, fmt.Errorf("zone: deriving primary ns: %w", err)
		}
	}
	// cuts stays nil until the first Delegate call — reads of a nil map are
	// fine, and leaf zones (the per-domain SLD zones a sweep materializes by
	// the million) never delegate.
	z := &Zone{
		apex:        cfg.Apex,
		ttl:         ttl,
		records:     make(map[dns.Key][]dns.RR),
		typesByName: make(map[dns.Name][]dns.Type),
		nameSet:     make(map[dns.Name]bool),

		synthRecords: gencache.New[dns.Name, []dns.RR](genCacheSpan),
		sigCache:     gencache.New[dns.Key, dns.RR](genCacheSpan),
	}
	rname, err := dns.Concat("hostmaster", cfg.Apex)
	if err != nil {
		return nil, fmt.Errorf("zone: deriving rname: %w", err)
	}
	soa := dns.RR{
		Name: cfg.Apex, Type: dns.TypeSOA, Class: dns.ClassIN, TTL: ttl,
		Data: &dns.SOAData{
			MName: primary, RName: rname, Serial: cfg.Serial,
			Refresh: 7200, Retry: 900, Expire: 1209600, MinTTL: negativeTTL,
		},
	}
	ns := dns.RR{
		Name: cfg.Apex, Type: dns.TypeNS, Class: dns.ClassIN, TTL: ttl,
		Data: &dns.NSData{Target: primary},
	}
	z.insertLocked(soa)
	z.insertLocked(ns)
	return z, nil
}

// Apex returns the zone origin.
func (z *Zone) Apex() dns.Name { return z.apex }

// Generation returns the zone's mutation counter; it changes whenever zone
// content (records, cuts, signing state) changes. Authoritative packet
// caches validate cached responses against it.
func (z *Zone) Generation() uint64 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.gen
}

// IsSigned reports whether Sign has been called.
func (z *Zone) IsSigned() bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.signed
}

// UsesNSEC3 reports whether the zone answers denials with NSEC3.
func (z *Zone) UsesNSEC3() bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.nsec3
}

// Add inserts a record. The owner must be at or below the apex and must not
// lie below a delegation cut (glue is added via Delegate).
func (z *Zone) Add(rr dns.RR) error {
	if !rr.Name.IsSubdomainOf(z.apex) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, rr.Name, z.apex)
	}
	if rr.Type == dns.TypeSOA && rr.Name == z.apex {
		return ErrDuplicateSOA
	}
	if rr.TTL == 0 {
		rr.TTL = z.ttl
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.insertLocked(rr)
	return nil
}

// AddSet inserts several records, failing on the first error.
func (z *Zone) AddSet(rrs ...dns.RR) error {
	for _, rr := range rrs {
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	return nil
}

// Delegate records a zone cut: child becomes a delegation point served by
// the given name servers. Glue records may be attached for in-bailiwick
// servers.
func (z *Zone) Delegate(child dns.Name, servers []dns.Name, glue []dns.RR) error {
	if child == z.apex || !child.IsSubdomainOf(z.apex) {
		return fmt.Errorf("%w: %s not strictly under %s", ErrOutOfZone, child, z.apex)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.gen++
	if z.cuts == nil {
		z.cuts = make(map[dns.Name]bool)
	}
	z.cuts[child] = true
	for _, s := range servers {
		z.insertLocked(dns.RR{
			Name: child, Type: dns.TypeNS, Class: dns.ClassIN, TTL: z.ttl,
			Data: &dns.NSData{Target: s},
		})
	}
	for _, g := range glue {
		if g.TTL == 0 {
			g.TTL = z.ttl
		}
		z.insertLocked(g)
	}
	return nil
}

// AttachDS deposits the child's delegation-signer record(s) at the cut,
// establishing the chain of trust to a signed child.
func (z *Zone) AttachDS(child dns.Name, ds ...*dns.DSData) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if !z.cuts[child] {
		return fmt.Errorf("%w: %s", ErrNoSuchCut, child)
	}
	for _, d := range ds {
		z.insertLocked(dns.RR{
			Name: child, Type: dns.TypeDS, Class: dns.ClassIN, TTL: z.ttl, Data: d,
		})
	}
	return nil
}

// insertLocked adds rr and indexes its owner name. Callers hold z.mu.
func (z *Zone) insertLocked(rr dns.RR) {
	z.gen++
	key := rr.Key()
	z.records[key] = append(z.records[key], rr)
	if !dns.HasType(z.typesByName[rr.Name], rr.Type) {
		z.typesByName[rr.Name] = append(z.typesByName[rr.Name], rr.Type)
	}
	if !z.nameSet[rr.Name] {
		z.nameSet[rr.Name] = true
		z.names = append(z.names, rr.Name)
		z.namesDirty = true
	}
	// Any cached signature for this RRset is now stale.
	z.sigCache.Delete(key)
}

// SignConfig configures zone signing.
type SignConfig struct {
	// KSK signs the DNSKEY RRset; ZSK signs everything else.
	KSK, ZSK *dnssec.KeyPair
	// Inception/Expiration bound signature validity (epoch seconds).
	Inception, Expiration uint32
	// Rand supplies signing randomness (ECDSA); required.
	Rand io.Reader
	// NSEC3 switches denial of existence to hashed records (RFC 5155),
	// used by the paper's §7.3 ablation. Salt/Iterations apply when set.
	NSEC3           bool
	NSEC3Salt       []byte
	NSEC3Iterations uint16
}

// Sign enables DNSSEC for the zone: publishes the DNSKEY RRset and arms
// lazy signing of served RRsets and denial proofs.
func (z *Zone) Sign(cfg SignConfig) error {
	if cfg.KSK == nil || cfg.ZSK == nil {
		return errors.New("zone: signing requires both KSK and ZSK")
	}
	if cfg.Rand == nil {
		return errors.New("zone: signing requires a randomness source")
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.gen++
	z.signed = true
	z.ksk, z.zsk = cfg.KSK, cfg.ZSK
	z.inception, z.expiration = cfg.Inception, cfg.Expiration
	z.rng = cfg.Rand
	z.sigCache = gencache.New[dns.Key, dns.RR](genCacheSpan) // re-signing invalidates every memoized signature
	z.nsec3 = cfg.NSEC3
	z.nsec3Salt = cfg.NSEC3Salt
	z.nsec3Iter = cfg.NSEC3Iterations
	z.insertLocked(cfg.KSK.DNSKEYRR(z.apex, z.ttl))
	z.insertLocked(cfg.ZSK.DNSKEYRR(z.apex, z.ttl))
	return nil
}

// DS exports the delegation-signer payload(s) for the zone's KSK, for
// deposit in the parent zone (or a DLV registry).
func (z *Zone) DS(digestType uint8) (*dns.DSData, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if !z.signed {
		return nil, ErrNotSigned
	}
	return dnssec.MakeDS(z.apex, z.ksk.Public(), digestType)
}

// DLV exports the look-aside payload for the zone's KSK, for deposit in a
// DLV registry (RFC 4431).
func (z *Zone) DLV(digestType uint8) (*dns.DLVData, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if !z.signed {
		return nil, ErrNotSigned
	}
	return dnssec.MakeDLV(z.apex, z.ksk.Public(), digestType)
}

// KSKTag returns the key tag of the zone's key-signing key.
func (z *Zone) KSKTag() (uint16, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if !z.signed {
		return 0, ErrNotSigned
	}
	return z.ksk.KeyTag(), nil
}
