package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// fakeNet is a scripted Exchanger/Clock: each (dst, qname, qtype) triple
// maps to a canned response or error; every exchange advances a logical
// clock and is counted.
type fakeNet struct {
	now       time.Duration
	step      time.Duration
	responses map[string]*dns.Message
	errs      map[string]error
	exchanges int
	log       []string
}

func newFakeNet() *fakeNet {
	return &fakeNet{
		step:      10 * time.Millisecond,
		responses: make(map[string]*dns.Message),
		errs:      make(map[string]error),
	}
}

func key(dst netip.Addr, qname dns.Name, qtype dns.Type) string {
	return fmt.Sprintf("%s|%s|%s", dst, qname, qtype)
}

func (f *fakeNet) Now() time.Duration { return f.now }

func (f *fakeNet) Exchange(_, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	f.exchanges++
	f.now += f.step
	k := key(dst, q.QName(), q.QType())
	f.log = append(f.log, k)
	if err, ok := f.errs[k]; ok {
		return nil, err
	}
	if resp, ok := f.responses[k]; ok {
		out := *resp
		out.Header.ID = q.Header.ID
		return &out, nil
	}
	return nil, fmt.Errorf("fakeNet: unscripted exchange %s", k)
}

// script helpers.
func (f *fakeNet) answer(dst netip.Addr, qname dns.Name, qtype dns.Type, rrs ...dns.RR) {
	m := &dns.Message{Header: dns.Header{QR: true, AA: true, RCode: dns.RCodeNoError}}
	m.Question = []dns.Question{{Name: qname, Type: qtype, Class: dns.ClassIN}}
	m.Answer = rrs
	f.responses[key(dst, qname, qtype)] = m
}

func (f *fakeNet) referral(dst netip.Addr, qname dns.Name, qtype dns.Type, child dns.Name, nsTarget dns.Name, glue netip.Addr) {
	m := &dns.Message{Header: dns.Header{QR: true, RCode: dns.RCodeNoError}}
	m.Question = []dns.Question{{Name: qname, Type: qtype, Class: dns.ClassIN}}
	m.Authority = []dns.RR{{
		Name: child, Type: dns.TypeNS, Class: dns.ClassIN, TTL: 3600,
		Data: &dns.NSData{Target: nsTarget},
	}}
	if glue.IsValid() {
		m.Additional = []dns.RR{{
			Name: nsTarget, Type: dns.TypeA, Class: dns.ClassIN, TTL: 3600,
			Data: &dns.AData{Addr: glue},
		}}
	}
	f.responses[key(dst, qname, qtype)] = m
}

func (f *fakeNet) nxdomain(dst netip.Addr, qname dns.Name, qtype dns.Type, soaOwner dns.Name) {
	m := &dns.Message{Header: dns.Header{QR: true, AA: true, RCode: dns.RCodeNXDomain}}
	m.Question = []dns.Question{{Name: qname, Type: qtype, Class: dns.ClassIN}}
	m.Authority = []dns.RR{{
		Name: soaOwner, Type: dns.TypeSOA, Class: dns.ClassIN, TTL: 900,
		Data: &dns.SOAData{MName: soaOwner, RName: soaOwner, MinTTL: 300},
	}}
	f.responses[key(dst, qname, qtype)] = m
}

var (
	rootAddr = netip.MustParseAddr("198.41.0.4")
	tldAddr  = netip.MustParseAddr("192.5.6.30")
	sldAddr  = netip.MustParseAddr("10.50.0.1")
	resAddr  = netip.MustParseAddr("10.0.0.53")
)

func newTestResolver(t *testing.T, f *fakeNet) *Resolver {
	t.Helper()
	r, err := New(Config{
		Addr:      resAddr,
		RootHints: []netip.Addr{rootAddr},
		Net:       f,
		Clock:     f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func aRR(name string, addr netip.Addr) dns.RR {
	return dns.RR{
		Name: dns.MustName(name), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: addr},
	}
}

// scriptBasicPath wires root → com → example.com with a final A answer.
func scriptBasicPath(f *fakeNet) {
	www := dns.MustName("www.example.com")
	f.referral(rootAddr, www, dns.TypeA, dns.MustName("com"), dns.MustName("ns1.com"), tldAddr)
	f.referral(tldAddr, www, dns.TypeA, dns.MustName("example.com"), dns.MustName("ns1.example.com"), sldAddr)
	f.answer(sldAddr, www, dns.TypeA, aRR("www.example.com", netip.MustParseAddr("203.0.113.80")))
}

func TestIterativeResolution(t *testing.T) {
	f := newFakeNet()
	scriptBasicPath(f)
	r := newTestResolver(t, f)
	res, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if f.exchanges != 3 {
		t.Fatalf("exchanges = %d, want 3 (root, tld, sld): %v", f.exchanges, f.log)
	}
	if res.Elapsed != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v", res.Elapsed)
	}
}

func TestPositiveCacheAndTTLExpiry(t *testing.T) {
	f := newFakeNet()
	scriptBasicPath(f)
	r := newTestResolver(t, f)
	if _, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	before := f.exchanges
	if _, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.exchanges != before {
		t.Fatalf("cache miss on repeat: %d -> %d", before, f.exchanges)
	}
	if r.Stats().CacheHits == 0 {
		t.Fatal("cache hits not counted")
	}
	// Advance past the 300s TTL: the answer must be refetched (from the
	// cached delegation, so one exchange).
	f.now += 400 * time.Second
	if _, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.exchanges != before+1 {
		t.Fatalf("expected exactly one refetch, got %d new exchanges: %v",
			f.exchanges-before, f.log)
	}
}

func TestNegativeCaching(t *testing.T) {
	f := newFakeNet()
	gone := dns.MustName("gone.example.com")
	f.referral(rootAddr, gone, dns.TypeA, dns.MustName("com"), dns.MustName("ns1.com"), tldAddr)
	f.referral(tldAddr, gone, dns.TypeA, dns.MustName("example.com"), dns.MustName("ns1.example.com"), sldAddr)
	f.nxdomain(sldAddr, gone, dns.TypeA, dns.MustName("example.com"))
	r := newTestResolver(t, f)
	res, err := r.Resolve(gone, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dns.RCodeNXDomain {
		t.Fatalf("rcode = %s", res.RCode)
	}
	before := f.exchanges
	if _, err := r.Resolve(gone, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.exchanges != before {
		t.Fatal("negative cache miss on repeat")
	}
}

func TestGluelessDelegation(t *testing.T) {
	f := newFakeNet()
	www := dns.MustName("www.example.com")
	nsName := dns.MustName("ns.other.net")
	// Referral to example.com without glue: the resolver must resolve the
	// NS target first.
	f.referral(rootAddr, www, dns.TypeA, dns.MustName("com"), nsName, netip.Addr{})
	// Resolution of ns.other.net from the root.
	f.referral(rootAddr, nsName, dns.TypeA, dns.MustName("net"), dns.MustName("ns1.net"), tldAddr)
	f.answer(tldAddr, nsName, dns.TypeA, aRR("ns.other.net", sldAddr))
	// example.com is then served by sldAddr... which answers directly.
	f.answer(sldAddr, www, dns.TypeA, aRR("www.example.com", netip.MustParseAddr("203.0.113.80")))
	r := newTestResolver(t, f)
	res, err := r.Resolve(www, dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v (log %v)", err, f.log)
	}
	if len(res.Answer) != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCNAMEChase(t *testing.T) {
	f := newFakeNet()
	alias := dns.MustName("alias.example.com")
	target := dns.MustName("www.example.com")
	f.referral(rootAddr, alias, dns.TypeA, dns.MustName("com"), dns.MustName("ns1.com"), tldAddr)
	f.referral(tldAddr, alias, dns.TypeA, dns.MustName("example.com"), dns.MustName("ns1.example.com"), sldAddr)
	f.answer(sldAddr, alias, dns.TypeA, dns.RR{
		Name: alias, Type: dns.TypeCNAME, Class: dns.ClassIN, TTL: 300,
		Data: &dns.CNAMEData{Target: target},
	})
	f.answer(sldAddr, target, dns.TypeA, aRR("www.example.com", netip.MustParseAddr("203.0.113.80")))
	r := newTestResolver(t, f)
	res, err := r.Resolve(alias, dns.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v (log %v)", err, f.log)
	}
	types := map[dns.Type]bool{}
	for _, rr := range res.Answer {
		types[rr.Type] = true
	}
	if !types[dns.TypeCNAME] || !types[dns.TypeA] {
		t.Fatalf("answer = %v", res.Answer)
	}
}

func TestServfailFromLameServer(t *testing.T) {
	f := newFakeNet()
	www := dns.MustName("www.example.com")
	m := &dns.Message{Header: dns.Header{QR: true, RCode: dns.RCodeRefused}}
	m.Question = []dns.Question{{Name: www, Type: dns.TypeA, Class: dns.ClassIN}}
	f.responses[key(rootAddr, www, dns.TypeA)] = m
	r := newTestResolver(t, f)
	if _, err := r.Resolve(www, dns.TypeA); !errors.Is(err, ErrServfail) {
		t.Fatalf("err = %v, want ErrServfail", err)
	}
}

func TestNetworkErrorPropagates(t *testing.T) {
	f := newFakeNet()
	www := dns.MustName("www.example.com")
	boom := errors.New("link down")
	f.errs[key(rootAddr, www, dns.TypeA)] = boom
	r := newTestResolver(t, f)
	if _, err := r.Resolve(www, dns.TypeA); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped link error", err)
	}
}

func TestEmptyReferralIsServfail(t *testing.T) {
	f := newFakeNet()
	www := dns.MustName("www.example.com")
	m := &dns.Message{Header: dns.Header{QR: true, RCode: dns.RCodeNoError}}
	m.Question = []dns.Question{{Name: www, Type: dns.TypeA, Class: dns.ClassIN}}
	f.responses[key(rootAddr, www, dns.TypeA)] = m // neither AA nor NS records
	r := newTestResolver(t, f)
	if _, err := r.Resolve(www, dns.TypeA); !errors.Is(err, ErrServfail) {
		t.Fatalf("err = %v, want ErrServfail", err)
	}
}

func TestConfigValidation(t *testing.T) {
	f := newFakeNet()
	if _, err := New(Config{Net: f, Clock: f}); err == nil {
		t.Fatal("missing root hints accepted")
	}
	if _, err := New(Config{RootHints: []netip.Addr{rootAddr}}); err == nil {
		t.Fatal("missing net accepted")
	}
	if _, err := New(Config{
		RootHints: []netip.Addr{rootAddr}, Net: f, Clock: f,
		Lookaside: &LookasideConfig{},
	}); err == nil {
		t.Fatal("lookaside without zone accepted")
	}
	// Defaults are applied.
	r, err := New(Config{
		RootHints: []netip.Addr{rootAddr}, Net: f, Clock: f,
		Lookaside: &LookasideConfig{Zone: dns.MustName("dlv.test")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Lookaside.Policy != PolicyOnFailure || r.cfg.Lookaside.Remedy != RemedyNone {
		t.Fatalf("defaults not applied: %+v", r.cfg.Lookaside)
	}
}

func TestHandlerShapesStubErrors(t *testing.T) {
	f := newFakeNet() // nothing scripted: every resolution fails
	r := newTestResolver(t, f)
	q := dns.NewQuery(5, dns.MustName("www.example.com"), dns.TypeA, true)
	// Unscripted exchanges return a plain error, which is not one of the
	// SERVFAIL-able classes: the handler must propagate it.
	if _, err := r.HandleQuery(q, netip.MustParseAddr("10.0.0.10")); err == nil {
		t.Fatal("unexpected success")
	}
	// Lame delegation becomes SERVFAIL toward the stub.
	m := &dns.Message{Header: dns.Header{QR: true, RCode: dns.RCodeRefused}}
	m.Question = []dns.Question{{Name: dns.MustName("www.example.com"), Type: dns.TypeA, Class: dns.ClassIN}}
	f.responses[key(rootAddr, dns.MustName("www.example.com"), dns.TypeA)] = m
	resp, err := r.HandleQuery(q, netip.MustParseAddr("10.0.0.10"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeServFail || !resp.Header.RA {
		t.Fatalf("stub response = %+v", resp.Header)
	}
	// Empty question is FORMERR.
	resp, err = r.HandleQuery(&dns.Message{}, netip.MustParseAddr("10.0.0.10"))
	if err != nil || resp.Header.RCode != dns.RCodeFormErr {
		t.Fatalf("formerr path: %v %v", resp, err)
	}
}

func TestStringers(t *testing.T) {
	if PolicyOnFailure.String() != "on-failure" || PolicySignedOnly.String() != "signed-only" ||
		LookasidePolicy(0).String() != "unknown" {
		t.Fatal("policy strings broken")
	}
	if RemedyNone.String() != "none" || RemedyTXT.String() != "txt" ||
		RemedyZBit.String() != "zbit" || RemedyMode(0).String() != "unknown" {
		t.Fatal("remedy strings broken")
	}
}

func TestRootFailover(t *testing.T) {
	f := newFakeNet()
	scriptBasicPath(f)
	deadRoot := netip.MustParseAddr("198.41.0.5")
	f.errs[key(deadRoot, dns.MustName("www.example.com"), dns.TypeA)] = errors.New("dead root")

	r, err := New(Config{
		Addr:      resAddr,
		RootHints: []netip.Addr{deadRoot, rootAddr}, // first hint is down
		Net:       f,
		Clock:     f,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA)
	if err != nil {
		t.Fatalf("failover did not save the resolution: %v (log %v)", err, f.log)
	}
	if len(res.Answer) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if r.Stats().Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", r.Stats().Failovers)
	}
}

func TestAllServersDead(t *testing.T) {
	f := newFakeNet()
	deadA := netip.MustParseAddr("198.41.0.5")
	deadB := netip.MustParseAddr("198.41.0.6")
	boom := errors.New("link down")
	f.errs[key(deadA, dns.MustName("www.example.com"), dns.TypeA)] = boom
	f.errs[key(deadB, dns.MustName("www.example.com"), dns.TypeA)] = boom
	r, err := New(Config{
		Addr: resAddr, RootHints: []netip.Addr{deadA, deadB}, Net: f, Clock: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Two servers × two retry rounds = 4 attempts = 3 transitions.
	if r.Stats().Failovers != 3 {
		t.Fatalf("Failovers = %d, want 3", r.Stats().Failovers)
	}
}

func TestRetryAfterPacketLoss(t *testing.T) {
	// One root server whose first exchange is lost; the second-round retry
	// succeeds.
	f := newFakeNet()
	scriptBasicPath(f)
	lost := false
	inner := f
	retryNet := exchangerFunc(func(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
		if dst == rootAddr && !lost {
			lost = true
			return nil, errors.New("packet lost")
		}
		return inner.Exchange(src, dst, q)
	})
	r, err := New(Config{
		Addr: resAddr, RootHints: []netip.Addr{rootAddr}, Net: retryNet, Clock: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(dns.MustName("www.example.com"), dns.TypeA)
	if err != nil {
		t.Fatalf("retry did not recover from loss: %v", err)
	}
	if len(res.Answer) != 1 || r.Stats().Failovers != 1 {
		t.Fatalf("res=%+v failovers=%d", res, r.Stats().Failovers)
	}
}

// exchangerFunc adapts a function to simnet.Exchanger.
type exchangerFunc func(src, dst netip.Addr, q *dns.Message) (*dns.Message, error)

func (f exchangerFunc) Exchange(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	return f(src, dst, q)
}

// TestStatsFieldsComplete catches drift between Stats and its enumerator:
// Fields must return every field exactly once, and every field must be an
// int (Fields hands out *int). Adding a counter to Stats without extending
// Fields fails here, not in a merged report that silently drops it.
func TestStatsFieldsComplete(t *testing.T) {
	var s Stats
	fields := s.Fields()
	typ := reflect.TypeOf(s)
	if typ.NumField() != len(fields) {
		t.Fatalf("Stats has %d fields, Fields enumerates %d — extend Fields",
			typ.NumField(), len(fields))
	}
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Int {
			t.Errorf("field %s is %s; Fields only enumerates int",
				typ.Field(i).Name, typ.Field(i).Type)
		}
	}
	// Writing a distinct value through each pointer must light up each
	// struct field exactly once — proving the enumeration is a bijection,
	// not the right count with a duplicated pointer.
	for i, p := range fields {
		*p = i + 1
	}
	seen := make(map[int]bool)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		val := int(v.Field(i).Int())
		if val == 0 || seen[val] {
			t.Fatalf("field %s = %d after distinct writes: Fields misses or duplicates a field",
				typ.Field(i).Name, val)
		}
		seen[val] = true
	}
	// Plus is a loop over the same list: every field doubles.
	sum := reflect.ValueOf(s.Plus(s))
	for i := 0; i < v.NumField(); i++ {
		if got, want := sum.Field(i).Int(), 2*v.Field(i).Int(); got != want {
			t.Errorf("Plus: field %s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
}
