package zone

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// mapSynth is a SynthSource backed by literal maps, mirroring what the
// universe's TLD and registry sources derive arithmetically.
type mapSynth struct {
	entries []SynthEntry
	records map[dns.Name][]dns.RR
	derived int
}

func (m *mapSynth) SynthIndex() []SynthEntry {
	return append([]SynthEntry(nil), m.entries...)
}

func (m *mapSynth) SynthRecords(e SynthEntry) ([]dns.RR, error) {
	m.derived++
	return append([]dns.RR(nil), m.records[e.Name]...), nil
}

// buildSynthPair returns two zones with identical content: one built
// eagerly via Delegate/AttachDS/Add, one from a static apex plus a
// SynthSource. Both are signed with the same keys and validity window, so
// every served byte (RRSIGs included) must coincide.
func buildSynthPair(t *testing.T) (eager, lazy *Zone) {
	t.Helper()
	mk := func() *Zone {
		z, err := New(Config{Apex: dns.MustName("tld"), Serial: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		err = z.Sign(SignConfig{
			KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 11),
			ZSK:       mustKey(t, dns.DNSKEYFlagZone, 12),
			Inception: 0, Expiration: 1 << 31,
			Rand: rand.New(rand.NewSource(13)),
		})
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		return z
	}

	nsName := dns.MustName("pool0.nic.tld")
	glue := dns.RR{
		Name: nsName, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
		Data: &dns.AData{Addr: netip.AddrFrom4([4]byte{10, 50, 0, 1})},
	}
	ds := &dns.DSData{KeyTag: 4242, Algorithm: 253, DigestType: 2, Digest: []byte{1, 2, 3, 4}}
	leafName := dns.MustName("zz-deposit.tld")
	leaf := dns.RR{
		Name: leafName, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 3600,
		Data: &dns.TXTData{Strings: []string{"deposit"}},
	}
	cuts := []struct {
		name   dns.Name
		secure bool
	}{
		{dns.MustName("alpha.tld"), false},
		{dns.MustName("bravo.tld"), true},
		{dns.MustName("mike.tld"), false},
	}

	eager = mk()
	for _, c := range cuts {
		if err := eager.Delegate(c.name, []dns.Name{nsName}, nil); err != nil {
			t.Fatalf("Delegate(%s): %v", c.name, err)
		}
		if c.secure {
			if err := eager.AttachDS(c.name, ds); err != nil {
				t.Fatalf("AttachDS(%s): %v", c.name, err)
			}
		}
	}
	if err := eager.AddSet(glue, leaf); err != nil {
		t.Fatalf("AddSet: %v", err)
	}

	src := &mapSynth{records: map[dns.Name][]dns.RR{
		nsName:   {glue},
		leafName: {leaf},
	}}
	for _, c := range cuts {
		kind := SynthCut
		// NS and DS carry TTL 0: the zone must fill its default, exactly as
		// Delegate and AttachDS do on the eager side.
		rrs := []dns.RR{{
			Name: c.name, Type: dns.TypeNS, Class: dns.ClassIN,
			Data: &dns.NSData{Target: nsName},
		}}
		if c.secure {
			kind = SynthSecureCut
			rrs = append(rrs, dns.RR{
				Name: c.name, Type: dns.TypeDS, Class: dns.ClassIN, Data: ds,
			})
		}
		src.entries = append(src.entries, SynthEntry{Name: c.name, Kind: kind})
		src.records[c.name] = rrs
	}
	src.entries = append(src.entries,
		SynthEntry{Name: nsName, Kind: SynthGlue},
		SynthEntry{Name: leafName, Kind: SynthLeaf, Aux: uint32(dns.TypeTXT)},
	)
	lazy = mk()
	lazy.AttachSynth(src)
	return eager, lazy
}

// TestSynthLookupByteIdentical pins the lazy-materialization contract: a
// synth-backed zone serves exactly what the eagerly built zone serves, for
// every lookup outcome the state machine can produce — answers, secure and
// insecure referrals, DS answers and DS-absence denials, glue, wildcard-free
// NXDOMAIN with its covering NSEC, ENT NODATA, and chain wraparound.
func TestSynthLookupByteIdentical(t *testing.T) {
	eager, lazy := buildSynthPair(t)

	queries := []struct {
		name  string
		qtype dns.Type
	}{
		{"tld", dns.TypeSOA},            // apex
		{"tld", dns.TypeNS},             // apex NS
		{"tld", dns.TypeDNSKEY},         // key set
		{"alpha.tld", dns.TypeA},        // insecure referral (DS denial)
		{"alpha.tld", dns.TypeDS},       // NODATA at the cut
		{"bravo.tld", dns.TypeA},        // secure referral
		{"bravo.tld", dns.TypeDS},       // DS answer
		{"www.bravo.tld", dns.TypeA},    // below a cut
		{"mike.tld", dns.TypeAAAA},      // referral near the chain tail
		{"pool0.nic.tld", dns.TypeA},    // glue served authoritatively
		{"pool0.nic.tld", dns.TypeAAAA}, // NODATA at an existing name
		{"nic.tld", dns.TypeA},          // empty non-terminal
		{"zz-deposit.tld", dns.TypeTXT}, // leaf answer
		{"zz-deposit.tld", dns.TypeA},   // leaf NODATA
		{"aaaa.tld", dns.TypeA},         // NXDOMAIN before the first cut
		{"golf.tld", dns.TypeA},         // NXDOMAIN between cuts
		{"zzz.tld", dns.TypeA},          // NXDOMAIN past the last name (wrap)
	}
	for _, dnssecOK := range []bool{false, true} {
		for _, q := range queries {
			name := dns.MustName(q.name)
			want, err := eager.Lookup(name, q.qtype, dnssecOK)
			if err != nil {
				t.Fatalf("eager Lookup(%s, %s, %t): %v", q.name, q.qtype, dnssecOK, err)
			}
			got, err := lazy.Lookup(name, q.qtype, dnssecOK)
			if err != nil {
				t.Fatalf("lazy Lookup(%s, %s, %t): %v", q.name, q.qtype, dnssecOK, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("Lookup(%s, %s, dnssecOK=%t) differs:\neager: %+v\nlazy:  %+v",
					q.name, q.qtype, dnssecOK, want, got)
			}
		}
	}

	if want, got := eager.NSECChainNames(), lazy.NSECChainNames(); !reflect.DeepEqual(want, got) {
		t.Errorf("NSEC chains differ:\neager: %v\nlazy:  %v", want, got)
	}
}

// TestSynthApexDenialOnUntouchedIndex pins the one lookup that reaches chain
// arithmetic without first searching the owner index: the apex resolves to
// position 0 without building it, so a NODATA at the apex — as the very
// first query a zone sees — must still name the first synthesized owner as
// the apex NSEC's next.
func TestSynthApexDenialOnUntouchedIndex(t *testing.T) {
	eager, lazy := buildSynthPair(t)
	apex := dns.MustName("tld")
	want, err := eager.Lookup(apex, dns.TypeTXT, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.Lookup(apex, dns.TypeTXT, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("first-query apex NODATA differs:\neager: %+v\nlazy:  %+v", want, got)
	}
}

// TestSynthMaterializationIsLazyAndGenStable pins the two properties packet
// caches depend on: records are derived only when a query needs them, and
// materialization never changes the zone generation.
func TestSynthMaterializationIsLazyAndGenStable(t *testing.T) {
	_, lazy := buildSynthPair(t)
	src := lazy.synth.src.(*mapSynth)

	gen := lazy.Generation()
	if src.derived != 0 {
		t.Fatalf("derived %d record sets before any query", src.derived)
	}
	// An NXDOMAIN needs chain arithmetic but no record content.
	if _, err := lazy.Lookup(dns.MustName("golf.tld"), dns.TypeA, true); err != nil {
		t.Fatal(err)
	}
	if src.derived != 0 {
		t.Errorf("NXDOMAIN derived %d record sets; chain math must not materialize", src.derived)
	}
	if _, err := lazy.Lookup(dns.MustName("bravo.tld"), dns.TypeA, true); err != nil {
		t.Fatal(err)
	}
	if src.derived == 0 {
		t.Error("referral did not materialize the cut")
	}
	if lazy.MaterializedNames() == 0 {
		t.Error("overlay empty after materialization")
	}
	if got := lazy.Generation(); got != gen {
		t.Errorf("generation moved %d -> %d across materialization", gen, got)
	}
}
