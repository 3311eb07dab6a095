package authserver

import (
	"math/rand"
	"net/netip"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

var stub = netip.MustParseAddr("10.0.0.1")

func testZone(t *testing.T, apex string, signed bool) *zone.Zone {
	t.Helper()
	z, err := zone.New(zone.Config{Apex: dns.MustName(apex), Serial: 1})
	if err != nil {
		t.Fatal(err)
	}
	www, err := dns.MakeName("www." + apex)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dns.RR{
		Name: www, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.80")},
	}); err != nil {
		t.Fatal(err)
	}
	if signed {
		ksk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		zsk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Sign(zone.SignConfig{
			KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31,
			Rand: rand.New(rand.NewSource(3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

func TestAnswerQuery(t *testing.T) {
	srv, err := New(Config{Name: "ns.example.com"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(1, dns.MustName("www.example.com"), dns.TypeA, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.QR || !resp.Header.AA || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("header = %+v", resp.Header)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].Type != dns.TypeA {
		t.Fatalf("answer = %v", resp.Answer)
	}
	if resp.Header.ID != q.Header.ID {
		t.Fatal("response ID mismatch")
	}
}

func TestRefusedOutsideAuthority(t *testing.T) {
	srv, err := New(Config{Name: "ns.example.com"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(2, dns.MustName("www.other.net"), dns.TypeA, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Fatalf("rcode = %s, want REFUSED", resp.Header.RCode)
	}
}

func TestFormErrOnEmptyQuestion(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.HandleQuery(&dns.Message{}, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeFormErr {
		t.Fatalf("rcode = %s, want FORMERR", resp.Header.RCode)
	}
}

func TestMostSpecificSourceWins(t *testing.T) {
	parent := testZone(t, "example.com", false)
	child := testZone(t, "sub.example.com", false)
	srv, err := New(Config{Name: "ns"}, parent, child)
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(3, dns.MustName("www.sub.example.com"), dns.TypeA, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("child zone not matched: %v", resp.Answer)
	}
}

func TestRemedyRequiresSignaler(t *testing.T) {
	if _, err := New(Config{Name: "ns", TXTRemedy: true}); err == nil {
		t.Fatal("TXT remedy without signaler accepted")
	}
	if _, err := New(Config{Name: "ns", ZBitRemedy: true}); err == nil {
		t.Fatal("Z-bit remedy without signaler accepted")
	}
}

func TestTXTRemedySignal(t *testing.T) {
	deposited := dns.MustName("www.example.com")
	signaler := SignalerFunc(func(d dns.Name) bool { return d == deposited })
	srv, err := New(Config{Name: "ns", TXTRemedy: true, Signaler: signaler},
		testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		qname string
		want  string
	}{
		{"www.example.com", "dlv=1"},
		{"mail.example.com", "dlv=0"}, // NXDOMAIN in the zone: still signaled
	} {
		q := dns.NewQuery(4, dns.MustName(tt.qname), dns.TypeTXT, false)
		resp, err := srv.HandleQuery(q, stub)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answer) != 1 {
			t.Fatalf("%s: answer = %v", tt.qname, resp.Answer)
		}
		txt, ok := resp.Answer[0].Data.(*dns.TXTData)
		if !ok || len(txt.Strings) != 1 || txt.Strings[0] != tt.want {
			t.Fatalf("%s: TXT = %v, want %q", tt.qname, resp.Answer[0].Data, tt.want)
		}
	}
}

func TestZBitRemedy(t *testing.T) {
	deposited := dns.MustName("www.example.com")
	signaler := SignalerFunc(func(d dns.Name) bool { return d == deposited })
	srv, err := New(Config{Name: "ns", ZBitRemedy: true, Signaler: signaler},
		testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(5, deposited, dns.TypeA, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Z {
		t.Fatal("Z bit not set for deposited domain")
	}
	q = dns.NewQuery(6, dns.MustName("other.example.com"), dns.TypeA, false)
	resp, err = srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Z {
		t.Fatal("Z bit set for non-deposited domain")
	}
}

func TestNoRemedyMeansNoSignal(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(7, dns.MustName("www.example.com"), dns.TypeTXT, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 0 {
		t.Fatalf("unexpected synthesized TXT: %v", resp.Answer)
	}
	if resp.Header.Z {
		t.Fatal("Z bit set without remedy")
	}
}

func TestParseTXTSignalAbsent(t *testing.T) {
	// Ordinary TXT data a server publishes must not read as a remedy signal.
	if _, ok := dlv.ParseTXTSignal([]string{"v=spf1 -all"}); ok {
		t.Fatal("unrelated TXT parsed as signal")
	}
	if _, ok := dlv.ParseTXTSignal(nil); ok {
		t.Fatal("empty TXT parsed as signal")
	}
}

func TestSignedZoneThroughServer(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", true))
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(8, dns.MustName("www.example.com"), dns.TypeA, true)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	types := map[dns.Type]bool{}
	for _, rr := range resp.Answer {
		types[rr.Type] = true
	}
	if !types[dns.TypeA] || !types[dns.TypeRRSIG] {
		t.Fatalf("signed answer types = %v", types)
	}
}

func TestAXFR(t *testing.T) {
	z := testZone(t, "example.com", true)
	srv, err := New(Config{Name: "ns"}, z)
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(9, dns.MustName("example.com"), dns.TypeAXFR, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeNoError || !resp.Header.AA {
		t.Fatalf("header = %+v", resp.Header)
	}
	if len(resp.Answer) < 5 {
		t.Fatalf("transfer too small: %d records", len(resp.Answer))
	}
	if resp.Answer[0].Type != dns.TypeSOA || resp.Answer[len(resp.Answer)-1].Type != dns.TypeSOA {
		t.Fatalf("transfer not SOA-bracketed: first=%s last=%s",
			resp.Answer[0].Type, resp.Answer[len(resp.Answer)-1].Type)
	}
	types := map[dns.Type]bool{}
	for _, rr := range resp.Answer {
		types[rr.Type] = true
	}
	for _, want := range []dns.Type{dns.TypeDNSKEY, dns.TypeRRSIG, dns.TypeNSEC} {
		if !types[want] {
			t.Errorf("signed transfer missing %s", want)
		}
	}

	// Off-apex AXFR is refused.
	q = dns.NewQuery(10, dns.MustName("www.example.com"), dns.TypeAXFR, false)
	resp, err = srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Fatalf("off-apex AXFR rcode = %s", resp.Header.RCode)
	}
}

// nonTransferable is a Source without TransferRecords.
type nonTransferable struct{ apex dns.Name }

func (s *nonTransferable) Apex() dns.Name { return s.apex }
func (s *nonTransferable) Lookup(dns.Name, dns.Type, bool) (*zone.Result, error) {
	return &zone.Result{Kind: zone.KindNoData, RCode: dns.RCodeNoError}, nil
}

func TestAXFRRefusedForNonTransferable(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, &nonTransferable{apex: dns.MustName("gen.test")})
	if err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(11, dns.MustName("gen.test"), dns.TypeAXFR, false)
	resp, err := srv.HandleQuery(q, stub)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}
