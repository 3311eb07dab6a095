package zone

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
)

// mapZone is the oracle for the zone's owner table: the indexes a zone kept
// before it had one — records keyed by RRset, the types at each owner in
// first-insertion order, the owner names with their set, and the cuts — and
// the map-era rules for everything the table answers: record order and
// count, the NSEC chain, the signed export and static-zone lookups. It scans
// where the zone searches, and it signs afresh where the zone memoizes.
type mapZone struct {
	apex        dns.Name
	ttl         uint32
	gen         uint64
	records     map[dns.Key][]dns.RR
	typesByName map[dns.Name][]dns.Type
	names       []dns.Name
	nameSet     map[dns.Name]bool
	cuts        map[dns.Name]bool
	sign        *SignConfig
}

// newMapZone mirrors a freshly made zone: its SOA and apex NS.
func newMapZone(z *Zone) *mapZone {
	m := &mapZone{
		apex: z.Apex(), ttl: DefaultTTL,
		records: map[dns.Key][]dns.RR{}, typesByName: map[dns.Name][]dns.Type{},
		nameSet: map[dns.Name]bool{}, cuts: map[dns.Name]bool{},
	}
	for _, rr := range z.AllRecords() {
		m.insert(rr)
	}
	return m
}

func (m *mapZone) insert(rr dns.RR) {
	m.gen++
	key := rr.Key()
	m.records[key] = append(m.records[key], rr)
	if !dns.HasType(m.typesByName[rr.Name], rr.Type) {
		m.typesByName[rr.Name] = append(m.typesByName[rr.Name], rr.Type)
	}
	if !m.nameSet[rr.Name] {
		m.nameSet[rr.Name] = true
		m.names = append(m.names, rr.Name)
	}
}

func (m *mapZone) add(rr dns.RR) {
	if rr.TTL == 0 {
		rr.TTL = m.ttl
	}
	m.insert(rr)
}

func (m *mapZone) delegate(child dns.Name, servers []dns.Name, glue []dns.RR) {
	m.gen++
	m.cuts[child] = true
	for _, s := range servers {
		m.insert(dns.RR{Name: child, Type: dns.TypeNS, Class: dns.ClassIN, TTL: m.ttl, Data: &dns.NSData{Target: s}})
	}
	for _, g := range glue {
		m.add(g)
	}
}

func (m *mapZone) attachDS(child dns.Name, ds *dns.DSData) error {
	if !m.cuts[child] {
		return ErrNoSuchCut
	}
	m.insert(dns.RR{Name: child, Type: dns.TypeDS, Class: dns.ClassIN, TTL: m.ttl, Data: ds})
	return nil
}

func (m *mapZone) signWith(cfg SignConfig) {
	m.gen++
	m.sign = &cfg
	m.insert(cfg.KSK.DNSKEYRR(m.apex, m.ttl))
	m.insert(cfg.ZSK.DNSKEYRR(m.apex, m.ttl))
}

func (m *mapZone) rrset(name dns.Name, t dns.Type) []dns.RR {
	return m.records[dns.Key{Name: name, Type: t, Class: dns.ClassIN}]
}

func (m *mapZone) sorted() []dns.Name {
	out := append([]dns.Name(nil), m.names...)
	sort.Slice(out, func(i, j int) bool { return dns.CanonicalLess(out[i], out[j]) })
	return out
}

// visible reports whether no cut lies strictly between the apex and name.
func (m *mapZone) visible(name dns.Name) bool {
	for n := name.Parent(); n != m.apex && !n.IsRoot(); n = n.Parent() {
		if m.cuts[n] {
			return false
		}
	}
	return true
}

func (m *mapZone) chain() []dns.Name {
	var out []dns.Name
	for _, n := range m.sorted() {
		if m.visible(n) {
			out = append(out, n)
		}
	}
	return out
}

func (m *mapZone) allRecords() []dns.RR {
	var out []dns.RR
	for _, n := range m.sorted() {
		for _, t := range m.typesByName[n] {
			out = append(out, m.rrset(n, t)...)
		}
	}
	return out
}

func (m *mapZone) recordCount() int {
	total := 0
	for _, set := range m.records {
		total += len(set)
	}
	return total
}

func (m *mapZone) hasDescendant(name dns.Name) bool {
	for _, n := range m.names {
		if n != name && n.IsSubdomainOf(name) {
			return true
		}
	}
	return false
}

func (m *mapZone) signSet(set []dns.RR) dns.RR {
	key := m.sign.ZSK
	if set[0].Type == dns.TypeDNSKEY {
		key = m.sign.KSK
	}
	sig, err := dnssec.SignRRSet(key, m.apex, set, m.sign.Inception, m.sign.Expiration, m.sign.Rand)
	if err != nil {
		panic(err)
	}
	return sig
}

// nsecAt builds the NSEC at an owner: the next chain name, wrapping to the
// apex, and the owner's types.
func (m *mapZone) nsecAt(name dns.Name) dns.RR {
	next := m.apex
	for _, n := range m.chain() {
		if dns.CanonicalCompare(n, name) > 0 {
			next = n
			break
		}
	}
	types := append(append([]dns.Type(nil), m.typesByName[name]...), dns.TypeRRSIG, dns.TypeNSEC)
	dns.SortTypes(types)
	return dns.RR{Name: name, Type: dns.TypeNSEC, Class: dns.ClassIN, TTL: negativeTTL,
		Data: &dns.NSECData{NextName: next, Types: types}}
}

func (m *mapZone) signedRecords() ([]dns.RR, error) {
	if m.sign == nil {
		return nil, ErrNotSigned
	}
	var out []dns.RR
	for _, n := range m.sorted() {
		visible := m.visible(n)
		for _, t := range m.typesByName[n] {
			set := m.rrset(n, t)
			out = append(out, set...)
			if visible && (!m.cuts[n] || t == dns.TypeDS) {
				out = append(out, m.signSet(set))
			}
		}
		if visible {
			nsec := m.nsecAt(n)
			out = append(out, nsec, m.signSet([]dns.RR{nsec}))
		}
	}
	return out, nil
}

func (m *mapZone) lookup(qname dns.Name, qtype dns.Type, do bool) *Result {
	if !qname.IsSubdomainOf(m.apex) {
		return &Result{Kind: KindRefused, RCode: dns.RCodeRefused}
	}
	sigs := do && m.sign != nil
	// The shallowest cut at or above qname, strictly below the apex.
	var path []dns.Name
	for n := qname; n != m.apex; n = n.Parent() {
		path = append(path, n)
	}
	for i := len(path) - 1; i >= 0; i-- {
		if cut := path[i]; m.cuts[cut] {
			if qname == cut && qtype == dns.TypeDS {
				return m.answer(qname, qtype, sigs)
			}
			return m.referral(cut, sigs)
		}
	}
	if m.nameSet[qname] {
		return m.answer(qname, qtype, sigs)
	}
	if m.hasDescendant(qname) {
		return m.negative(KindNoData, qname, false, sigs)
	}
	enc := qname.Parent()
	for enc != m.apex && !m.nameSet[enc] && !m.hasDescendant(enc) {
		enc = enc.Parent()
	}
	if wc := dns.Name("*." + string(enc)); m.nameSet[wc] {
		set := m.rrset(wc, qtype)
		if len(set) == 0 {
			return m.negative(KindNoData, qname, false, sigs)
		}
		res := &Result{Kind: KindAnswer, RCode: dns.RCodeNoError}
		for _, rr := range set {
			rr.Name = qname
			res.Answer = append(res.Answer, rr)
		}
		if sigs {
			sig := m.signSet(set)
			sig.Name = qname
			res.Answer = append(res.Answer, sig)
			m.deny(res, qname, false)
		}
		return res
	}
	return m.negative(KindNXDomain, qname, false, sigs)
}

func (m *mapZone) answer(name dns.Name, qtype dns.Type, sigs bool) *Result {
	set := m.rrset(name, qtype)
	if len(set) == 0 && qtype != dns.TypeCNAME {
		set = m.rrset(name, dns.TypeCNAME)
	}
	if len(set) == 0 {
		return m.negative(KindNoData, name, true, sigs)
	}
	res := &Result{Kind: KindAnswer, RCode: dns.RCodeNoError, Answer: append([]dns.RR(nil), set...)}
	if sigs {
		res.Answer = append(res.Answer, m.signSet(set))
	}
	return res
}

func (m *mapZone) referral(cut dns.Name, sigs bool) *Result {
	res := &Result{Kind: KindReferral, RCode: dns.RCodeNoError}
	ns := m.rrset(cut, dns.TypeNS)
	res.Authority = append(res.Authority, ns...)
	if sigs {
		if ds := m.rrset(cut, dns.TypeDS); len(ds) > 0 {
			res.Authority = append(append(res.Authority, ds...), m.signSet(ds))
		} else {
			m.deny(res, cut, true)
		}
	}
	for _, rr := range ns {
		target := rr.Data.(*dns.NSData).Target
		res.Additional = append(res.Additional, m.rrset(target, dns.TypeA)...)
		res.Additional = append(res.Additional, m.rrset(target, dns.TypeAAAA)...)
	}
	return res
}

func (m *mapZone) negative(kind ResultKind, q dns.Name, exists, sigs bool) *Result {
	res := &Result{Kind: kind, RCode: dns.RCodeNoError}
	if kind == KindNXDomain {
		res.RCode = dns.RCodeNXDomain
	}
	soa := m.rrset(m.apex, dns.TypeSOA)
	res.Authority = append(res.Authority, soa...)
	if sigs {
		res.Authority = append(res.Authority, m.signSet(soa))
		m.deny(res, q, exists)
	}
	return res
}

// deny attaches the NSEC at q (exists) or at q's chain predecessor.
func (m *mapZone) deny(res *Result, q dns.Name, exists bool) {
	at := q
	if !exists {
		at = m.apex
		for _, n := range m.chain() {
			if dns.CanonicalLess(n, q) {
				at = n
			}
		}
	}
	nsec := m.nsecAt(at)
	res.Authority = append(res.Authority, nsec, m.signSet([]dns.RR{nsec}))
}

// tableOwners are the owner names the differential sequences draw from,
// below apex diff.test: plain leaves, names that sort next to each other,
// wildcards, names below other owners, and cut candidates with names below
// them (which become glue once the cut exists).
var tableOwners = []string{
	"", "a", "b", "www", "a-b", "_srv", "z", "*", "x.a", "c.x.a", "*.b",
	"sub", "ns1.sub", "deep.sub", "deleg", "k.deleg", "ns.k.deleg",
}

var tableCuts = []string{"sub", "deleg", "k.deleg", "x.a", "b"}

func tableName(label string) dns.Name {
	if label == "" {
		return dns.MustName("diff.test")
	}
	return dns.MustName(label + ".diff.test")
}

func randRecord(r *rand.Rand, name dns.Name) dns.RR {
	rr := dns.RR{Name: name, Class: dns.ClassIN, TTL: uint32(r.Intn(2)) * 300}
	switch r.Intn(4) {
	case 0, 1:
		rr.Type, rr.Data = dns.TypeA, &dns.AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(r.Intn(4))})}
	case 2:
		rr.Type, rr.Data = dns.TypeAAAA, &dns.AAAAData{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(r.Intn(4))})}
	default:
		rr.Type, rr.Data = dns.TypeTXT, &dns.TXTData{Strings: []string{fmt.Sprint("t", r.Intn(3))}}
	}
	return rr
}

// runTableSequence applies one seeded random sequence of inserts,
// delegations, DS attachments and signings to a zone and its oracle. Reads
// of the zone fall between them, so the table is sorted and merged at
// random points; they ask for no signature, since a memoized NSEC
// signature outlives the chain change of a later insert.
func runTableSequence(t *testing.T, seed int64) (*Zone, *mapZone) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	z, err := New(Config{Apex: tableName(""), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := newMapZone(z)
	pick := func(from []string) dns.Name { return tableName(from[r.Intn(len(from))]) }
	ops := 40 + r.Intn(80)
	for op := 0; op < ops; op++ {
		switch n := r.Intn(100); {
		case n < 40:
			rr := randRecord(r, pick(tableOwners))
			if err := z.Add(rr); err != nil {
				t.Fatalf("seed %d: Add(%s): %v", seed, rr, err)
			}
			m.add(rr)
		case n < 52:
			var rrs []dns.RR
			for i := 0; i < 1+r.Intn(4); i++ {
				rrs = append(rrs, randRecord(r, pick(tableOwners)))
			}
			if err := z.AddSet(rrs...); err != nil {
				t.Fatalf("seed %d: AddSet: %v", seed, err)
			}
			for _, rr := range rrs {
				m.add(rr)
			}
		case n < 66:
			child := pick(tableCuts)
			servers := []dns.Name{dns.MustName("ns.elsewhere.example")}
			var glue []dns.RR
			if r.Intn(2) == 0 {
				ns := dns.MustName("ns1." + string(child))
				servers = append(servers, ns)
				glue = append(glue, randRecord(r, ns))
			}
			if err := z.Delegate(child, servers, glue); err != nil {
				t.Fatalf("seed %d: Delegate(%s): %v", seed, child, err)
			}
			m.delegate(child, servers, glue)
		case n < 78:
			child := pick(tableCuts)
			ds := &dns.DSData{KeyTag: uint16(r.Intn(3)), Algorithm: 253, DigestType: 2, Digest: []byte{byte(r.Intn(3))}}
			got, want := z.AttachDS(child, ds), m.attachDS(child, ds)
			if errors.Is(got, ErrNoSuchCut) != (want != nil) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d: AttachDS(%s) = %v, oracle %v", seed, child, got, want)
			}
		case n < 81:
			cfg := SignConfig{
				KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, seed),
				ZSK:       mustKey(t, dns.DNSKEYFlagZone, seed+1),
				Inception: 1000, Expiration: 2000, Rand: rand.New(rand.NewSource(seed)),
			}
			if err := z.Sign(cfg); err != nil {
				t.Fatal(err)
			}
			m.signWith(cfg)
		default:
			switch r.Intn(4) {
			case 0:
				if _, err := z.Lookup(pick(tableOwners), dns.TypeA, false); err != nil {
					t.Fatal(err)
				}
			case 1:
				z.AllRecords()
			case 2:
				z.NSECChainNames()
			default:
				z.RecordCount()
			}
		}
	}
	return z, m
}

// TestOwnerTableMatchesMapIndexes runs seeded random sequences of Add,
// AddSet, Delegate, AttachDS and Sign — duplicate and out-of-order owners,
// glue, wildcards, cuts below cuts — against the zone and the map-indexed
// oracle, and requires the same generation, records in the same order, the
// same count, NSEC chain and signed export, and the same Lookup result for
// every owner, every ancestor of one, and random names below them.
func TestOwnerTableMatchesMapIndexes(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	qtypes := []dns.Type{dns.TypeA, dns.TypeAAAA, dns.TypeTXT, dns.TypeNS, dns.TypeDS, dns.TypeSOA, dns.TypeDNSKEY, dns.TypeMX}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		z, m := runTableSequence(t, seed)
		if got, want := z.Generation(), m.gen; got != want {
			t.Fatalf("seed %d: generation %d, oracle %d", seed, got, want)
		}
		if got, want := z.AllRecords(), m.allRecords(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AllRecords differs from the oracle:\ngot:  %v\nwant: %v", seed, got, want)
		}
		if got, want := z.RecordCount(), m.recordCount(); got != want {
			t.Fatalf("seed %d: RecordCount %d, oracle %d", seed, got, want)
		}
		if got, want := z.NSECChainNames(), m.chain(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: NSECChainNames differs from the oracle:\ngot:  %v\nwant: %v", seed, got, want)
		}
		got, gotErr := z.SignedRecords()
		want, wantErr := m.signedRecords()
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: SignedRecords differs from the oracle (%v, %v):\ngot:  %v\nwant: %v", seed, gotErr, wantErr, got, want)
		}

		r := rand.New(rand.NewSource(-seed))
		probe := map[dns.Name]bool{dns.MustName("other.test"): true}
		for _, label := range tableOwners {
			for n := tableName(label); n.IsSubdomainOf(m.apex); n = n.Parent() {
				probe[n] = true
			}
			probe[dns.MustName(randLabel(r)+"."+string(tableName(label)))] = true
		}
		for name := range probe {
			for _, qt := range qtypes {
				for _, do := range []bool{false, true} {
					got, err := z.Lookup(name, qt, do)
					if err != nil {
						t.Fatalf("seed %d: Lookup(%s, %s, %t): %v", seed, name, qt, do, err)
					}
					if want := m.lookup(name, qt, do); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: Lookup(%s, %s, do=%t) differs from the oracle:\ngot:  %+v\nwant: %+v",
							seed, name, qt, do, got, want)
					}
				}
			}
		}
	}
}

// TestOwnerTableConcurrentReads runs Lookup, AllRecords, RecordCount,
// NSECChainNames and Add from several goroutines on a zone whose table is
// unsorted, with duplicate owners. Each round unsorts the table, lets every
// goroutine call RecordCount, which holds only the read lock, and then one
// each of the five at once. Run it with -race: a reader that sorted under the
// read lock would write the table while another reads it.
func TestOwnerTableConcurrentReads(t *testing.T) {
	z, err := New(Config{Apex: tableName(""), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if err := z.Add(randRecord(r, tableName(tableOwners[r.Intn(len(tableOwners))]))); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 50
	// fresh is an owner that sorts before every owner added so far but the
	// apex, so adding it leaves the table unsorted.
	fresh := func(round, w int) dns.RR {
		return aRR(fmt.Sprintf("%03d-%d.diff.test", rounds-round, w), "192.0.2.9")
	}
	ops := []func(round, w int) error{
		func(round, w int) error { _, err := z.Lookup(tableName("www"), dns.TypeA, true); return err },
		func(round, w int) error { z.AllRecords(); return nil },
		func(round, w int) error { z.RecordCount(); return nil },
		func(round, w int) error {
			chain := z.NSECChainNames()
			for j := 1; j < len(chain); j++ {
				if !dns.CanonicalLess(chain[j-1], chain[j]) {
					return fmt.Errorf("chain out of order at %d: %s, %s", j, chain[j-1], chain[j])
				}
			}
			return nil
		},
		func(round, w int) error { return z.Add(fresh(round, w)) },
	}
	// together runs op(w) on every worker at once and waits for them.
	together := func(op func(w int) error) {
		var wg sync.WaitGroup
		errs := make([]error, len(ops))
		start := make(chan struct{})
		for w := range ops {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[w] = op(w)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	added := 200
	for round := 0; round < rounds; round++ {
		if err := z.Add(fresh(round, -1)); err != nil {
			t.Fatal(err)
		}
		added++
		z.mu.RLock()
		dirty := z.dirty
		z.mu.RUnlock()
		if !dirty {
			t.Fatalf("round %d: the table is sorted after an out-of-order insert", round)
		}
		together(func(int) error {
			if n := z.RecordCount(); n != 2+added {
				return fmt.Errorf("RecordCount %d, want %d", n, 2+added)
			}
			return nil
		})
		together(func(w int) error { return ops[w](round, w) })
		added++ // the Add among the five
	}
	if got, want := z.RecordCount(), len(z.AllRecords()); got != want || got != 2+added {
		t.Fatalf("RecordCount %d, AllRecords %d, want %d", got, want, 2+added)
	}
}
