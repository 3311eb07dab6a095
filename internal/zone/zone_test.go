package zone

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
)

func mustKey(t *testing.T, flags uint16, seed int64) *dnssec.KeyPair {
	t.Helper()
	k, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, flags, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	return k
}

func aRR(name string, addr string) dns.RR {
	return dns.RR{
		Name: dns.MustName(name), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: netip.MustParseAddr(addr)},
	}
}

// buildTestZone creates example.com with a www host, a mail host, a txt
// record, and a delegation to sub.example.com.
func buildTestZone(t *testing.T, signed bool) *Zone {
	t.Helper()
	z, err := New(Config{Apex: dns.MustName("example.com"), Serial: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := z.AddSet(
		aRR("www.example.com", "192.0.2.80"),
		aRR("mail.example.com", "192.0.2.25"),
		dns.RR{Name: dns.MustName("example.com"), Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 300,
			Data: &dns.TXTData{Strings: []string{"dlv=0"}}},
	); err != nil {
		t.Fatalf("AddSet: %v", err)
	}
	err = z.Delegate(dns.MustName("sub.example.com"),
		[]dns.Name{dns.MustName("ns1.sub.example.com")},
		[]dns.RR{aRR("ns1.sub.example.com", "192.0.2.53")})
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	if signed {
		err := z.Sign(SignConfig{
			KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 1),
			ZSK:       mustKey(t, dns.DNSKEYFlagZone, 2),
			Inception: 1000, Expiration: 2000,
			Rand: rand.New(rand.NewSource(3)),
		})
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
	}
	return z
}

func TestNewZoneHasSOAAndNS(t *testing.T) {
	z := buildTestZone(t, false)
	res, err := z.Lookup(dns.MustName("example.com"), dns.TypeSOA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer || len(res.Answer) != 1 {
		t.Fatalf("SOA lookup = %+v", res)
	}
	res, err = z.Lookup(dns.MustName("example.com"), dns.TypeNS, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer {
		t.Fatalf("NS lookup kind = %s", res.Kind)
	}
}

func TestAddValidation(t *testing.T) {
	z := buildTestZone(t, false)
	if err := z.Add(aRR("other.org", "192.0.2.1")); !errors.Is(err, ErrOutOfZone) {
		t.Fatalf("out-of-zone Add err = %v", err)
	}
	soa := dns.RR{Name: dns.MustName("example.com"), Type: dns.TypeSOA, Class: dns.ClassIN,
		Data: &dns.SOAData{}}
	if err := z.Add(soa); !errors.Is(err, ErrDuplicateSOA) {
		t.Fatalf("duplicate SOA err = %v", err)
	}
	// A cut owns its NS set: a delegation to no server is refused.
	if err := z.Delegate(dns.MustName("empty.example.com"), nil, nil); err == nil {
		t.Fatal("Delegate with no server succeeded")
	}
}

func TestLookupAnswer(t *testing.T) {
	for _, signed := range []bool{false, true} {
		z := buildTestZone(t, signed)
		res, err := z.Lookup(dns.MustName("www.example.com"), dns.TypeA, signed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != KindAnswer || res.RCode != dns.RCodeNoError {
			t.Fatalf("signed=%t: kind=%s rcode=%s", signed, res.Kind, res.RCode)
		}
		wantAnswers := 1
		if signed {
			wantAnswers = 2 // A + RRSIG
		}
		if len(res.Answer) != wantAnswers {
			t.Fatalf("signed=%t: %d answers, want %d: %v", signed, len(res.Answer), wantAnswers, res.Answer)
		}
		if signed && res.Answer[1].Type != dns.TypeRRSIG {
			t.Fatalf("second answer = %s, want RRSIG", res.Answer[1].Type)
		}
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := buildTestZone(t, true)
	res, err := z.Lookup(dns.MustName("nope.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindNXDomain || res.RCode != dns.RCodeNXDomain {
		t.Fatalf("kind=%s rcode=%s", res.Kind, res.RCode)
	}
	// Authority: SOA + RRSIG(SOA) + NSEC + RRSIG(NSEC).
	if len(res.Authority) != 4 {
		t.Fatalf("authority = %v", res.Authority)
	}
	var nsec *dns.NSECData
	var nsecOwner dns.Name
	for _, rr := range res.Authority {
		if d, ok := rr.Data.(*dns.NSECData); ok {
			nsec = d
			nsecOwner = rr.Name
		}
	}
	if nsec == nil {
		t.Fatal("no NSEC in NXDOMAIN authority")
	}
	if !covered(dns.MustName("nope.example.com"), nsecOwner, nsec.NextName) {
		t.Fatalf("NSEC [%s, %s) does not cover the denied name", nsecOwner, nsec.NextName)
	}
}

// TestRootZoneDeniesMissingTLD: a name with no existing ancestor but the
// root has the root itself as closest encloser, so the wildcard probed is
// "*." — the root zone must answer a signed denial, not an error.
func TestRootZoneDeniesMissingTLD(t *testing.T) {
	z, err := New(Config{Apex: dns.Root, Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Delegate(dns.MustName("com"), []dns.Name{dns.MustName("ns1.com")},
		[]dns.RR{aRR("ns1.com", "192.0.2.53")}); err != nil {
		t.Fatal(err)
	}
	if err := z.Sign(SignConfig{
		KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 1),
		ZSK:       mustKey(t, dns.DNSKEYFlagZone, 2),
		Inception: 1000, Expiration: 2000,
		Rand: rand.New(rand.NewSource(3)),
	}); err != nil {
		t.Fatal(err)
	}
	keyRes, err := z.Lookup(dns.Root, dns.TypeDNSKEY, true)
	if err != nil {
		t.Fatal(err)
	}
	keys := keyRes.AnswerRRSetOfType(dns.TypeDNSKEY)

	for _, qname := range []string{"nosuchtld", "www.nosuchtld"} {
		name := dns.MustName(qname)
		res, err := z.Lookup(name, dns.TypeA, true)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if res.Kind != KindNXDomain || res.RCode != dns.RCodeNXDomain {
			t.Fatalf("%s: kind=%s rcode=%s", name, res.Kind, res.RCode)
		}
		// Authority: SOA + RRSIG(SOA) + the covering NSEC + RRSIG(NSEC).
		if len(res.Authority) != 4 {
			t.Fatalf("%s: authority = %v", name, res.Authority)
		}
		for i := 0; i < len(res.Authority); i += 2 {
			rr, sig := res.Authority[i], res.Authority[i+1]
			if nsec, ok := rr.Data.(*dns.NSECData); ok && !covered(name, rr.Name, nsec.NextName) {
				t.Errorf("%s: NSEC [%s, %s) does not cover the denied name", name, rr.Name, nsec.NextName)
			}
			verified := false
			for _, k := range keys {
				if dnssec.VerifyRRSet(k.Data.(*dns.DNSKEYData), sig, []dns.RR{rr}, 1500) == nil {
					verified = true
				}
			}
			if !verified {
				t.Errorf("%s: RRSIG over %s %s does not verify against any root DNSKEY", name, rr.Name, rr.Type)
			}
		}
		if res.Authority[0].Type != dns.TypeSOA || res.Authority[2].Type != dns.TypeNSEC {
			t.Errorf("%s: authority types = %s, %s; want SOA, NSEC", name, res.Authority[0].Type, res.Authority[2].Type)
		}
	}
}

func TestLookupNoData(t *testing.T) {
	z := buildTestZone(t, true)
	res, err := z.Lookup(dns.MustName("www.example.com"), dns.TypeAAAA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindNoData || res.RCode != dns.RCodeNoError {
		t.Fatalf("kind=%s rcode=%s", res.Kind, res.RCode)
	}
	var nsec *dns.NSECData
	for _, rr := range res.Authority {
		if d, ok := rr.Data.(*dns.NSECData); ok {
			if rr.Name != dns.MustName("www.example.com") {
				t.Fatalf("NODATA NSEC owner = %s, want the query name", rr.Name)
			}
			nsec = d
		}
	}
	if nsec == nil {
		t.Fatal("no NSEC in NODATA authority")
	}
	if !dns.HasType(nsec.Types, dns.TypeA) {
		t.Fatal("NSEC type bitmap missing present type A")
	}
	if dns.HasType(nsec.Types, dns.TypeAAAA) {
		t.Fatal("NSEC type bitmap claims absent type AAAA")
	}
}

func TestLookupReferral(t *testing.T) {
	z := buildTestZone(t, true)
	res, err := z.Lookup(dns.MustName("deep.sub.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindReferral {
		t.Fatalf("kind = %s, want referral", res.Kind)
	}
	if len(res.Answer) != 0 {
		t.Fatal("referral must have empty answer section")
	}
	foundNS, foundNSEC, foundGlue := false, false, false
	for _, rr := range res.Authority {
		switch rr.Data.(type) {
		case *dns.NSData:
			foundNS = true
		case *dns.NSECData:
			foundNSEC = true // unsigned delegation: NSEC proves DS absence
		}
	}
	for _, rr := range res.Additional {
		if rr.Name == dns.MustName("ns1.sub.example.com") && rr.Type == dns.TypeA {
			foundGlue = true
		}
	}
	if !foundNS || !foundNSEC || !foundGlue {
		t.Fatalf("referral missing pieces: ns=%t nsec=%t glue=%t", foundNS, foundNSEC, foundGlue)
	}
}

func TestReferralWithDS(t *testing.T) {
	z := buildTestZone(t, true)
	childKSK := mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 10)
	ds, err := dnssec.MakeDS(dns.MustName("sub.example.com"), childKSK.Public(), dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.AttachDS(dns.MustName("sub.example.com"), ds); err != nil {
		t.Fatal(err)
	}
	res, err := z.Lookup(dns.MustName("x.sub.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	foundDS := false
	for _, rr := range res.Authority {
		if rr.Type == dns.TypeDS {
			foundDS = true
		}
		if rr.Type == dns.TypeNSEC {
			t.Fatal("signed delegation must not carry an NSEC denial")
		}
	}
	if !foundDS {
		t.Fatal("referral to signed child missing DS")
	}

	// The parent answers a DS query at the cut authoritatively.
	res, err = z.Lookup(dns.MustName("sub.example.com"), dns.TypeDS, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer || len(res.AnswerRRSetOfType(dns.TypeDS)) == 0 {
		t.Fatalf("DS query at cut: kind=%s answers=%v", res.Kind, res.Answer)
	}
}

func TestAttachDSRequiresCut(t *testing.T) {
	z := buildTestZone(t, true)
	err := z.AttachDS(dns.MustName("nocut.example.com"), &dns.DSData{})
	if !errors.Is(err, ErrNoSuchCut) {
		t.Fatalf("err = %v, want ErrNoSuchCut", err)
	}
}

func TestLookupRefused(t *testing.T) {
	z := buildTestZone(t, false)
	res, err := z.Lookup(dns.MustName("www.other.org"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindRefused || res.RCode != dns.RCodeRefused {
		t.Fatalf("kind=%s rcode=%s", res.Kind, res.RCode)
	}
}

func TestUnsignedZoneNXDomainHasNoNSEC(t *testing.T) {
	z := buildTestZone(t, false)
	res, err := z.Lookup(dns.MustName("nope.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Authority {
		if rr.Type == dns.TypeNSEC || rr.Type == dns.TypeRRSIG {
			t.Fatalf("unsigned zone emitted %s", rr.Type)
		}
	}
}

func TestDNSSECOffOmitsSigs(t *testing.T) {
	z := buildTestZone(t, true)
	res, err := z.Lookup(dns.MustName("www.example.com"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res.Answer {
		if rr.Type == dns.TypeRRSIG {
			t.Fatal("RRSIG served without DO bit")
		}
	}
}

func TestSignedAnswersVerify(t *testing.T) {
	// End-to-end: the RRSIG served by the zone verifies against the
	// published DNSKEY.
	z := buildTestZone(t, true)
	keyRes, err := z.Lookup(dns.MustName("example.com"), dns.TypeDNSKEY, true)
	if err != nil {
		t.Fatal(err)
	}
	keys := keyRes.AnswerRRSetOfType(dns.TypeDNSKEY)
	if len(keys) != 2 {
		t.Fatalf("published %d DNSKEYs, want 2", len(keys))
	}
	res, err := z.Lookup(dns.MustName("www.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	rrset := res.AnswerRRSetOfType(dns.TypeA)
	sigs := res.AnswerRRSetOfType(dns.TypeRRSIG)
	if len(rrset) == 0 || len(sigs) == 0 {
		t.Fatal("missing rrset or sig")
	}
	verified := false
	for _, k := range keys {
		kd := k.Data.(*dns.DNSKEYData)
		if dnssec.VerifyRRSet(kd, sigs[0], rrset, 1500) == nil {
			verified = true
		}
	}
	if !verified {
		t.Fatal("served RRSIG does not verify against any published DNSKEY")
	}
}

func TestNSECChainClosed(t *testing.T) {
	z := buildTestZone(t, true)
	names := z.NSECChainNames()
	if len(names) < 4 {
		t.Fatalf("chain too short: %v", names)
	}
	// Glue below the cut must not be part of the chain.
	for _, n := range names {
		if n == dns.MustName("ns1.sub.example.com") {
			t.Fatal("glue name appears in NSEC chain")
		}
	}
	// The chain is sorted and starts at the apex.
	if names[0] != z.Apex() {
		t.Fatalf("chain starts at %s, want apex", names[0])
	}
	for i := 1; i < len(names); i++ {
		if !dns.CanonicalLess(names[i-1], names[i]) {
			t.Fatalf("chain out of order at %d: %s !< %s", i, names[i-1], names[i])
		}
	}
}

func TestNSEC3ModeDenials(t *testing.T) {
	z, err := New(Config{Apex: dns.MustName("dlv.example.net"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(aRR("host.dlv.example.net", "192.0.2.99")); err != nil {
		t.Fatal(err)
	}
	err = z.Sign(SignConfig{
		KSK:       mustKey(t, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, 20),
		ZSK:       mustKey(t, dns.DNSKEYFlagZone, 21),
		Inception: 1000, Expiration: 2000,
		Rand:  rand.New(rand.NewSource(22)),
		NSEC3: true, NSEC3Salt: []byte{0xAB}, NSEC3Iterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !z.UsesNSEC3() {
		t.Fatal("UsesNSEC3 = false after NSEC3 signing")
	}
	res, err := z.Lookup(dns.MustName("missing.dlv.example.net"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	sawNSEC3 := false
	for _, rr := range res.Authority {
		if rr.Type == dns.TypeNSEC {
			t.Fatal("NSEC3 zone emitted plain NSEC")
		}
		if rr.Type == dns.TypeNSEC3 {
			sawNSEC3 = true
		}
	}
	if !sawNSEC3 {
		t.Fatal("NSEC3 denial missing")
	}
}

func TestDSAndDLVExport(t *testing.T) {
	z := buildTestZone(t, true)
	ds, err := z.DS(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	dlv, err := z.DLV(dnssec.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if ds.KeyTag != dlv.KeyTag {
		t.Fatal("DS and DLV disagree on key tag")
	}
	tag, err := z.KSKTag()
	if err != nil {
		t.Fatal(err)
	}
	if tag != ds.KeyTag {
		t.Fatal("KSKTag disagrees with DS")
	}
	unsigned := buildTestZone(t, false)
	if _, err := unsigned.DS(dnssec.DigestSHA256); !errors.Is(err, ErrNotSigned) {
		t.Fatalf("unsigned DS err = %v", err)
	}
	if _, err := unsigned.DLV(dnssec.DigestSHA256); !errors.Is(err, ErrNotSigned) {
		t.Fatalf("unsigned DLV err = %v", err)
	}
	if _, err := unsigned.KSKTag(); !errors.Is(err, ErrNotSigned) {
		t.Fatalf("unsigned KSKTag err = %v", err)
	}
}

func TestCNAMEAnswer(t *testing.T) {
	z := buildTestZone(t, false)
	if err := z.Add(dns.RR{
		Name: dns.MustName("alias.example.com"), Type: dns.TypeCNAME, Class: dns.ClassIN, TTL: 300,
		Data: &dns.CNAMEData{Target: dns.MustName("www.example.com")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := z.Lookup(dns.MustName("alias.example.com"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer || len(res.Answer) != 1 || res.Answer[0].Type != dns.TypeCNAME {
		t.Fatalf("CNAME chase result = %+v", res)
	}
}

func TestBulkLoadSortsLazily(t *testing.T) {
	z, err := New(Config{Apex: dns.MustName("big.test"), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	const n = 2000
	for i := 0; i < n; i++ {
		label := randLabel(r)
		if err := z.Add(aRR(label+".big.test", "192.0.2.7")); err != nil {
			t.Fatal(err)
		}
	}
	names := z.NSECChainNames()
	for i := 1; i < len(names); i++ {
		if !dns.CanonicalLess(names[i-1], names[i]) {
			t.Fatalf("bulk-loaded chain out of order at %d", i)
		}
	}
}

func randLabel(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, 3+r.Intn(10))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

func TestRecordCount(t *testing.T) {
	z := buildTestZone(t, false)
	// SOA + apex NS + 2 hosts + TXT + delegation NS + glue = 7.
	if got := z.RecordCount(); got != 7 {
		t.Fatalf("RecordCount = %d, want 7", got)
	}
}

func TestWildcardSynthesis(t *testing.T) {
	z := buildTestZone(t, true)
	if err := z.Add(dns.RR{
		Name: dns.MustName("*.example.com"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.200")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := z.Lookup(dns.MustName("anything.example.com"), dns.TypeA, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer {
		t.Fatalf("kind = %s", res.Kind)
	}
	aSet := res.AnswerRRSetOfType(dns.TypeA)
	if len(aSet) != 1 || aSet[0].Name != dns.MustName("anything.example.com") {
		t.Fatalf("synthesized answer = %v", res.Answer)
	}
	// The RRSIG travels at the synthesized name but with the wildcard's
	// Labels count, and verifies per RFC 4035 §5.3.2.
	sigs := res.AnswerRRSetOfType(dns.TypeRRSIG)
	if len(sigs) != 1 {
		t.Fatalf("sig missing: %v", res.Answer)
	}
	sigData := sigs[0].Data.(*dns.RRSIGData)
	if int(sigData.Labels) >= dns.MustName("anything.example.com").LabelCount() {
		t.Fatalf("Labels field %d does not reveal wildcard synthesis", sigData.Labels)
	}
	keyRes, err := z.Lookup(dns.MustName("example.com"), dns.TypeDNSKEY, true)
	if err != nil {
		t.Fatal(err)
	}
	verified := false
	for _, k := range keyRes.AnswerRRSetOfType(dns.TypeDNSKEY) {
		if dnssec.VerifyRRSet(k.Data.(*dns.DNSKEYData), sigs[0], aSet, 1500) == nil {
			verified = true
		}
	}
	if !verified {
		t.Fatal("wildcard-synthesized RRSIG does not verify")
	}
	// The denial that the exact name did not exist rides in the authority
	// section (RFC 4035 §3.1.3.3).
	foundNSEC := false
	for _, rr := range res.Authority {
		if rr.Type == dns.TypeNSEC {
			foundNSEC = true
		}
	}
	if !foundNSEC {
		t.Fatal("wildcard answer lacks the non-existence proof")
	}

	// Deep names are covered too (multi-label expansion).
	res, err = z.Lookup(dns.MustName("a.b.c.example.com"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAnswer {
		t.Fatalf("deep wildcard kind = %s", res.Kind)
	}

	// Wildcard NODATA: the wildcard exists but not for this type.
	res, err = z.Lookup(dns.MustName("anything.example.com"), dns.TypeMX, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindNoData {
		t.Fatalf("wildcard NODATA kind = %s", res.Kind)
	}

	// Existing names beat the wildcard.
	res, err = z.Lookup(dns.MustName("www.example.com"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer[0].Data.(*dns.AData).Addr != netip.MustParseAddr("192.0.2.80") {
		t.Fatal("wildcard shadowed an existing name")
	}
}

func TestWildcardDoesNotCoverENT(t *testing.T) {
	z := buildTestZone(t, true)
	if err := z.AddSet(
		dns.RR{Name: dns.MustName("*.example.com"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.200")}},
		dns.RR{Name: dns.MustName("deep.ent.example.com"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.201")}},
	); err != nil {
		t.Fatal(err)
	}
	// ent.example.com exists structurally: NODATA, not a wildcard answer.
	res, err := z.Lookup(dns.MustName("ent.example.com"), dns.TypeA, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindNoData {
		t.Fatalf("ENT answered via wildcard: %s", res.Kind)
	}
}
