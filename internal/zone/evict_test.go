package zone

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// floodSynth derives a zone-full of owners arithmetically, so a test can
// touch several times more of them than the zone's caches hold: owner i is
// n<i>.flood.test, by i%4 an insecure cut, a secure cut, a TXT leaf, an
// insecure cut; every cut is served by one of four in-zone pool servers whose
// glue is synthesized too.
type floodSynth struct {
	entries []SynthEntry
	derived int
}

const floodPools = 4

func floodOwner(i int) dns.Name { return dns.MustName(fmt.Sprintf("n%05d.flood.test", i)) }

func floodPool(p uint32) dns.Name { return dns.MustName(fmt.Sprintf("pool%d.nic.flood.test", p)) }

func newFloodSynth(owners int) *floodSynth {
	s := &floodSynth{}
	for i := 0; i < owners; i++ {
		e := SynthEntry{Name: floodOwner(i), Kind: SynthCut, Aux: uint32(i % floodPools)}
		switch i % 4 {
		case 1:
			e.Kind = SynthSecureCut
		case 2:
			e.Kind, e.Aux = SynthLeaf, uint32(dns.TypeTXT)
		}
		s.entries = append(s.entries, e)
	}
	for p := uint32(0); p < floodPools; p++ {
		s.entries = append(s.entries, SynthEntry{Name: floodPool(p), Kind: SynthGlue, Aux: p})
	}
	return s
}

func (s *floodSynth) SynthIndex() []SynthEntry { return s.entries }

func (s *floodSynth) SynthRecords(e SynthEntry) ([]dns.RR, error) {
	s.derived++
	switch e.Kind {
	case SynthGlue:
		return []dns.RR{{Name: e.Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
			Data: &dns.AData{Addr: netip.AddrFrom4([4]byte{10, 50, 0, byte(e.Aux)})}}}, nil
	case SynthLeaf:
		return []dns.RR{{Name: e.Name, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 3600,
			Data: &dns.TXTData{Strings: []string{"leaf of " + string(e.Name)}}}}, nil
	}
	rrs := []dns.RR{{Name: e.Name, Type: dns.TypeNS, Class: dns.ClassIN,
		Data: &dns.NSData{Target: floodPool(e.Aux)}}}
	if e.Kind == SynthSecureCut {
		rrs = append(rrs, dns.RR{Name: e.Name, Type: dns.TypeDS, Class: dns.ClassIN,
			Data: &dns.DSData{KeyTag: uint16(len(e.Name)) * 257, Algorithm: 253, DigestType: 2, Digest: []byte(e.Name)}})
	}
	return rrs, nil
}

func newFloodZone(t *testing.T, owners int) (*Zone, *floodSynth) {
	t.Helper()
	z, err := New(Config{Apex: dns.MustName("flood.test"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = z.Sign(SignConfig{
		KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 31),
		ZSK:       mustKey(t, dns.DNSKEYFlagZone, 32),
		Inception: 0, Expiration: 1 << 31,
		Rand: rand.New(rand.NewSource(33)),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := newFloodSynth(owners)
	z.AttachSynth(src)
	return z, src
}

type floodQuestion struct {
	name dns.Name
	typ  dns.Type
	do   bool
}

// askWire serves q from z and returns the response sections as wire bytes.
func askWire(t *testing.T, z *Zone, q floodQuestion) []byte {
	t.Helper()
	res, err := z.Lookup(q.name, q.typ, q.do)
	if err != nil {
		t.Fatalf("Lookup(%s, %s, do=%t): %v", q.name, q.typ, q.do, err)
	}
	m := &dns.Message{
		Header:     dns.Header{QR: true, AA: true, RCode: res.RCode},
		Question:   []dns.Question{{Name: q.name, Type: q.typ, Class: dns.ClassIN}},
		Answer:     res.Answer,
		Authority:  res.Authority,
		Additional: res.Additional,
	}
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("encoding answer to (%s, %s): %v", q.name, q.typ, err)
	}
	return wire
}

// TestSynthEvictionServesIdenticalBytes pins that dropping derived state is
// invisible on the wire and bounded in memory: a zone that has been asked
// about four times more distinct owners than its caches hold answers every
// earlier question — referrals, DS answers and DS denials at the cut, leaf
// answers, NXDOMAIN and NODATA proofs — with the bytes it served the first
// time and the bytes a fresh zone serves; neither cache ever exceeds its
// bound; and what every generation touches (the apex SOA and DNSKEY
// signatures, pool glue) is still held when the one-touch entries are gone.
func TestSynthEvictionServesIdenticalBytes(t *testing.T) {
	const owners = 4*genCacheCap + 500
	z, src := newFloodZone(t, owners)
	apex := z.Apex()

	var questions []floodQuestion
	for _, do := range []bool{true, false} {
		questions = append(questions,
			floodQuestion{apex, dns.TypeSOA, do},
			floodQuestion{apex, dns.TypeDNSKEY, do},
			floodQuestion{apex, dns.TypeTXT, do},                                // apex NODATA
			floodQuestion{dns.MustName("www.n00001.flood.test"), dns.TypeA, do}, // below a secure cut
			floodQuestion{dns.MustName("nic.flood.test"), dns.TypeA, do},        // empty non-terminal
			floodQuestion{floodPool(0), dns.TypeA, do},                          // glue, authoritatively
			floodQuestion{floodPool(1), dns.TypeAAAA, do},                       // NODATA at glue
			floodQuestion{dns.MustName("m.flood.test"), dns.TypeA, do},          // NXDOMAIN before the first owner
			floodQuestion{dns.MustName("n00007a.flood.test"), dns.TypeA, do},    // NXDOMAIN between owners
			floodQuestion{dns.MustName("zzz.flood.test"), dns.TypeA, do},        // NXDOMAIN past the last (wrap)
		)
	}
	// The flood: per owner the referral (or leaf answer) and then the DS
	// query a validating resolver sends next — a DS answer at a secure cut, a
	// signed denial at an insecure one or a leaf.
	for i := 0; i < owners; i++ {
		typ := dns.TypeA
		if i%4 == 2 {
			typ = dns.TypeTXT
		}
		questions = append(questions, floodQuestion{floodOwner(i), typ, true}, floodQuestion{floodOwner(i), dns.TypeDS, true})
	}

	held := func() (records, sigs int) {
		z.mu.Lock()
		defer z.mu.Unlock()
		return z.synth.records.Len(), z.sig.sigs.Len()
	}
	first := make([][]byte, len(questions))
	for i, q := range questions {
		first[i] = askWire(t, z, q)
		if i%64 == 0 {
			// A validator re-fetches the key set now and then.
			askWire(t, z, floodQuestion{apex, dns.TypeDNSKEY, true})
			records, sigs := held()
			if records > genCacheCap || sigs > genCacheCap || z.MaterializedNames() != records {
				t.Fatalf("after %d questions the zone holds %d owners' records and %d signatures, bound %d",
					i, records, sigs, genCacheCap)
			}
		}
	}
	if records, _ := held(); records >= owners/2 {
		t.Fatalf("zone still holds %d of %d owners' records: nothing was evicted", records, owners)
	}

	// What the flood kept touching survived it; what it touched once did not.
	st := z.ExportSigState()
	if len(st.Entries) > genCacheCap {
		t.Errorf("exported %d signatures, bound %d", len(st.Entries), genCacheCap)
	}
	cached := map[dns.Key]bool{}
	for _, e := range st.Entries {
		cached[e.Key] = true
	}
	for _, typ := range []dns.Type{dns.TypeSOA, dns.TypeDNSKEY} {
		if !cached[dns.Key{Name: apex, Type: typ, Class: dns.ClassIN}] {
			t.Errorf("apex %s signature was evicted by one-touch entries", typ)
		}
	}
	if cached[dns.Key{Name: floodOwner(1), Type: dns.TypeDS, Class: dns.ClassIN}] {
		t.Error("a signature asked for once, four cache sizes ago, is still held")
	}
	z.mu.Lock()
	_, glueHeld := z.synth.records.Peek(floodPool(0))
	_, cutHeld := z.synth.records.Peek(floodOwner(0))
	z.mu.Unlock()
	if !glueHeld || cutHeld {
		t.Errorf("pool glue held = %t (want true), first cut held = %t (want false)", glueHeld, cutHeld)
	}

	// Every question again on the flooded zone, and in reverse order on a
	// zone that has served nothing.
	derived := src.derived
	for i, q := range questions {
		if got := askWire(t, z, q); !bytes.Equal(got, first[i]) {
			t.Fatalf("(%s, %s, do=%t) after eviction:\n got %x\nwant %x", q.name, q.typ, q.do, got, first[i])
		}
	}
	if src.derived == derived {
		t.Error("re-asking evicted owners derived nothing")
	}
	fresh, _ := newFloodZone(t, owners)
	for i := len(questions) - 1; i >= 0; i-- {
		q := questions[i]
		if got := askWire(t, fresh, q); !bytes.Equal(got, first[i]) {
			t.Fatalf("(%s, %s, do=%t) on a fresh zone:\n got %x\nwant %x", q.name, q.typ, q.do, got, first[i])
		}
	}
	if z.Generation() != fresh.Generation() {
		t.Errorf("generation moved: flooded zone %d, fresh zone %d", z.Generation(), fresh.Generation())
	}
}

// TestImportSigStateBound pins the import refusal to what the signature
// cache can hold: a state with one entry too many is refused with nothing
// installed, a state that exactly fits is installed whole.
func TestImportSigStateBound(t *testing.T) {
	z, _ := newFloodZone(t, 8)
	state := func(n int) *SigState {
		st := &SigState{Apex: z.Apex(), Generation: z.Generation()}
		for i := 0; i < n; i++ {
			name := floodOwner(i)
			st.Entries = append(st.Entries, SigEntry{
				Key: dns.Key{Name: name, Type: dns.TypeNSEC, Class: dns.ClassIN},
				Sig: dns.RR{Name: name, Type: dns.TypeRRSIG, Class: dns.ClassIN, TTL: negativeTTL,
					Data: &dns.RRSIGData{TypeCovered: dns.TypeNSEC, SignerName: z.Apex(), Signature: []byte{byte(i)}}},
			})
		}
		return st
	}
	if err := z.ImportSigState(state(genCacheCap + 1)); err == nil {
		t.Fatal("a state larger than the cache was imported")
	}
	if got := len(z.ExportSigState().Entries); got != 0 {
		t.Fatalf("refused import installed %d signatures", got)
	}
	if err := z.ImportSigState(state(genCacheCap)); err != nil {
		t.Fatalf("a state that fits the cache was refused: %v", err)
	}
	if got := len(z.ExportSigState().Entries); got != genCacheCap {
		t.Fatalf("import installed %d of %d signatures", got, genCacheCap)
	}
}
