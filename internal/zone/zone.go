// Package zone implements the authoritative zone model: record storage,
// delegation cuts with glue, DNSSEC signing (ZSK/KSK split, NSEC chains,
// DS export), and the lookup state machine that authoritative servers
// expose (answer, referral, NXDOMAIN, NODATA — each with the proofs a
// validating resolver needs).
//
// Signatures are produced lazily and memoized: a TLD zone in the simulated
// internet can delegate hundreds of thousands of children, and only the
// RRsets actually served need signing. The NSEC chain is likewise
// materialized on demand from the canonically sorted owner table.
package zone

import (
	"errors"
	"fmt"
	"io"
	"slices"
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
	// owners is the static data, one entry per owner name in canonical
	// (RFC 4034 §6.1) order; the apex is always entry 0. dirty marks it out
	// of order or holding an owner twice (see slotLocked) until the next
	// read under the write lock sorts it, so bulk loading stays O(n log n).
	owners  []ownerEntry
	ttl     uint32
	dirty   bool
	hasCuts bool

	// gen counts content mutations (inserts, delegations, signing state).
	// Packet caches key cached responses on it so a mutated zone — e.g.
	// the DLV registry after a Deposit — is never served stale.
	gen uint64

	// synth lazily extends the zone with derivable owner names (synth.go);
	// nil without a source.
	synth *synthIndex
	// sig holds the signing state; nil until Sign.
	sig *signer
}

// ownerEntry is one owner name and its records, grouped by type: the groups
// in the order each type was first inserted, records of one type in
// insertion order. An RRset is one run (typeRun), and AllRecords,
// SignedRecords and AXFR emit records in that order. cut marks a delegation
// point; every entry owns at least one record.
type ownerEntry struct {
	name dns.Name
	rrs  []dns.RR
	cut  bool
}

// add files rr at the end of its type's run.
func (e *ownerEntry) add(rr dns.RR) {
	for i := len(e.rrs) - 1; i >= 0; i-- {
		if e.rrs[i].Type == rr.Type {
			e.rrs = slices.Insert(e.rrs, i+1, rr)
			return
		}
	}
	e.rrs = append(e.rrs, rr)
}

// typeRun returns the records of type t in rrs, which are grouped by type,
// capped so that a caller's append cannot write into the next run. Nil
// means the type is absent.
func typeRun(rrs []dns.RR, t dns.Type) []dns.RR {
	lo := slices.IndexFunc(rrs, func(rr dns.RR) bool { return rr.Type == t })
	if lo < 0 {
		return nil
	}
	hi := lo + 1
	for hi < len(rrs) && rrs[hi].Type == t {
		hi++
	}
	return rrs[lo:hi:hi]
}

// signer is the signing state of a signed zone: its configuration and the
// memoized RRSIGs of recently served RRsets.
type signer struct {
	SignConfig
	sigs gencache.Cache[dns.Key, dns.RR]
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
	// The apex is entry 0 from the start. Its SOA and NS come next, and
	// most zones then add an address or a key pair there: room for four.
	z := &Zone{apex: cfg.Apex, ttl: ttl,
		owners: []ownerEntry{{name: cfg.Apex, rrs: make([]dns.RR, 0, 4)}}}
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
	return z.sig != nil
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
// the given name servers, at least one. Glue records may be attached for
// in-bailiwick servers.
func (z *Zone) Delegate(child dns.Name, servers []dns.Name, glue []dns.RR) error {
	if child == z.apex || !child.IsSubdomainOf(z.apex) {
		return fmt.Errorf("%w: %s not strictly under %s", ErrOutOfZone, child, z.apex)
	}
	if len(servers) == 0 {
		return fmt.Errorf("zone: delegation of %s names no server", child)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.gen++
	z.slotLocked(child).cut = true
	z.hasCuts = true
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
	// AttachDS follows its Delegate, so the cut is sought from the end of
	// the table, which a bulk load then need not sort once per delegation.
	i := len(z.owners) - 1
	for i >= 0 && (z.owners[i].name != child || !z.owners[i].cut) {
		i--
	}
	if i < 0 {
		return fmt.Errorf("%w: %s", ErrNoSuchCut, child)
	}
	for _, d := range ds {
		z.insertLocked(dns.RR{
			Name: child, Type: dns.TypeDS, Class: dns.ClassIN, TTL: z.ttl, Data: d,
		})
	}
	return nil
}

// insertLocked adds rr to its owner's entry. Callers hold z.mu.
func (z *Zone) insertLocked(rr dns.RR) {
	z.gen++
	z.slotLocked(rr.Name).add(rr)
	if z.sig != nil {
		// Any cached signature for this RRset is now stale.
		z.sig.sigs.Delete(rr.Key())
	}
}

// slotLocked returns the entry an insert at name fills: the last entry if it
// is name's, name's entry if the table is sorted, and otherwise a new entry
// at the end, which marks the table dirty unless it sorts last.
func (z *Zone) slotLocked(name dns.Name) *ownerEntry {
	n := len(z.owners)
	if n > 0 && z.owners[n-1].name == name {
		return &z.owners[n-1]
	}
	if !z.dirty {
		i, found := z.searchLocked(name)
		if found {
			return &z.owners[i]
		}
		z.dirty = i < n
	}
	z.owners = append(z.owners, ownerEntry{name: name})
	return &z.owners[n]
}

// searchLocked returns the position of the first owner that does not sort
// before name in a sorted table, and whether it is name.
func (z *Zone) searchLocked(name dns.Name) (int, bool) {
	return slices.BinarySearchFunc(z.owners, name, func(e ownerEntry, n dns.Name) int {
		return dns.CanonicalCompare(e.name, n)
	})
}

// ensureSortedLocked sorts the table and merges an owner's entries into
// one: a later entry holds only records inserted after all of an earlier
// one's, so re-adding them keeps type and insertion order. Callers hold the
// write lock.
func (z *Zone) ensureSortedLocked() {
	if !z.dirty {
		return
	}
	slices.SortStableFunc(z.owners, func(a, b ownerEntry) int {
		return dns.CanonicalCompare(a.name, b.name)
	})
	out := z.owners[:1]
	for _, e := range z.owners[1:] {
		last := &out[len(out)-1]
		if e.name != last.name {
			out = append(out, e)
			continue
		}
		last.cut = last.cut || e.cut
		for _, rr := range e.rrs {
			last.add(rr)
		}
	}
	clear(z.owners[len(out):])
	z.owners, z.dirty = out, false
}

// staticLocked returns name's entry of the static table, or nil.
func (z *Zone) staticLocked(name dns.Name) *ownerEntry {
	z.ensureSortedLocked()
	if i, found := z.searchLocked(name); found {
		return &z.owners[i]
	}
	return nil
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
	// A new signer starts with no memoized signature: re-signing invalidates them.
	z.sig = &signer{SignConfig: cfg, sigs: gencache.New[dns.Key, dns.RR](genCacheSpan)}
	z.insertLocked(cfg.KSK.DNSKEYRR(z.apex, z.ttl))
	z.insertLocked(cfg.ZSK.DNSKEYRR(z.apex, z.ttl))
	return nil
}

// DS exports the delegation-signer payload(s) for the zone's KSK, for
// deposit in the parent zone (or a DLV registry).
func (z *Zone) DS(digestType uint8) (*dns.DSData, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if z.sig == nil {
		return nil, ErrNotSigned
	}
	return dnssec.MakeDS(z.apex, z.sig.KSK.Public(), digestType)
}

// DLV exports the look-aside payload for the zone's KSK, for deposit in a
// DLV registry (RFC 4431).
func (z *Zone) DLV(digestType uint8) (*dns.DLVData, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if z.sig == nil {
		return nil, ErrNotSigned
	}
	return dnssec.MakeDLV(z.apex, z.sig.KSK.Public(), digestType)
}
