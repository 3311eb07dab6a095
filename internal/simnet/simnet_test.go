package simnet

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

var (
	clientAddr = netip.MustParseAddr("10.0.0.1")
	serverAddr = netip.MustParseAddr("192.0.2.53")
)

// echoHandler answers any query with NOERROR and mirrors the Z bit request.
func echoHandler(zbit bool) Handler {
	return HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		r := dns.NewResponse(q)
		r.Header.RCode = dns.RCodeNoError
		r.Header.Z = zbit
		return r, nil
	})
}

func TestExchangeBasics(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, 25*time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	resp, err := n.Exchange(clientAddr, serverAddr, q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if !resp.Header.QR || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("bad response header: %+v", resp.Header)
	}
	if got := n.Now(); got != 50*time.Millisecond {
		t.Fatalf("clock = %v, want 50ms RTT", got)
	}
	queries, bytes := n.Stats()
	if queries != 1 || bytes == 0 {
		t.Fatalf("stats = %d queries, %d bytes", queries, bytes)
	}
}

func TestExchangeNoRoute(t *testing.T) {
	n := New()
	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, false)
	if _, err := n.Exchange(clientAddr, serverAddr, q); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "a", RoleSLD, 0, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(serverAddr, "b", RoleSLD, 0, echoHandler(false)); !errors.Is(err, ErrDuplicateReg) {
		t.Fatalf("err = %v, want ErrDuplicateReg", err)
	}
}

func TestTapsObserveExchanges(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "dlv.test", RoleDLV, 10*time.Millisecond, echoHandler(true)); err != nil {
		t.Fatal(err)
	}
	var events []Event
	n.AddTap(func(ev Event) { events = append(events, ev) })

	q := dns.NewQuery(7, dns.MustName("example.com.dlv.test"), dns.TypeDLV, true)
	if _, err := n.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("captured %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.DstRole != RoleDLV || ev.DstName != "dlv.test" {
		t.Fatalf("event dst = %s/%s", ev.DstName, ev.DstRole)
	}
	if ev.Question.Type != dns.TypeDLV || ev.Question.Name != dns.MustName("example.com.dlv.test") {
		t.Fatalf("event question = %+v", ev.Question)
	}
	if ev.QuerySize == 0 || ev.RespSize == 0 {
		t.Fatalf("event sizes = %d/%d", ev.QuerySize, ev.RespSize)
	}
	if !ev.ZBit {
		t.Fatal("Z bit lost in capture")
	}
	if ev.RTT != 20*time.Millisecond {
		t.Fatalf("RTT = %v", ev.RTT)
	}
}

func TestClockAdvance(t *testing.T) {
	n := New()
	n.Advance(3 * time.Minute)
	if n.Now() != 3*time.Minute {
		t.Fatalf("Now = %v", n.Now())
	}
}

func TestWireRealismDetectsBadMessages(t *testing.T) {
	// A handler producing an unencodable message must surface an error.
	bad := HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		r := dns.NewResponse(q)
		r.Answer = append(r.Answer, dns.RR{
			Name: dns.MustName("x.test"), Type: dns.TypeA, Class: dns.ClassIN,
			Data: &dns.AData{Addr: netip.MustParseAddr("2001:db8::1")}, // v6 in A
		})
		return r, nil
	})
	n := New()
	if err := n.Register(serverAddr, "bad.test", RoleSLD, 0, bad); err != nil {
		t.Fatal(err)
	}
	q := dns.NewQuery(1, dns.MustName("x.test"), dns.TypeA, false)
	if _, err := n.Exchange(clientAddr, serverAddr, q); err == nil {
		t.Fatal("expected encode error for malformed response")
	}
}

func TestRoleStrings(t *testing.T) {
	for r, want := range map[Role]string{
		RoleRoot: "root", RoleTLD: "tld", RoleSLD: "sld", RoleDLV: "dlv",
		RoleRecursive: "recursive", RoleStub: "stub", RoleOther: "other",
		Role(99): "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("Role(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// TestClientAttribution pins the Event.Client contract: exchanges nested
// inside a stub→recursive hop are attributed to the stub; exchanges outside
// one are attributed to their own source; the attribution is restored when
// the stub exchange finishes.
func TestClientAttribution(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	recursiveAddr := netip.MustParseAddr("10.0.0.53")
	// A "resolver" that forwards every stub query upstream before answering.
	recursive := HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		if _, err := n.Exchange(recursiveAddr, serverAddr, q); err != nil {
			return nil, err
		}
		return dns.NewResponse(q), nil
	})
	if err := n.Register(recursiveAddr, "recursive", RoleRecursive, time.Millisecond, recursive); err != nil {
		t.Fatal(err)
	}

	var events []Event
	n.AddTap(func(ev Event) { events = append(events, ev) })

	stub := netip.MustParseAddr("10.0.9.7")
	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	if _, err := n.Exchange(stub, recursiveAddr, q); err != nil {
		t.Fatalf("stub exchange: %v", err)
	}
	// Direct exchange afterwards: attribution must have been restored.
	if _, err := n.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatalf("direct exchange: %v", err)
	}

	if len(events) != 3 {
		t.Fatalf("captured %d events, want 3", len(events))
	}
	// Nested upstream exchange: Src is the resolver, Client is the stub.
	if events[0].Src != recursiveAddr || events[0].Client != stub {
		t.Errorf("nested event: src=%v client=%v, want client=%v", events[0].Src, events[0].Client, stub)
	}
	// The stub hop itself is attributed to the stub.
	if events[1].Client != stub {
		t.Errorf("stub hop client = %v, want %v", events[1].Client, stub)
	}
	// Outside a stub exchange, Client falls back to Src.
	if events[2].Client != clientAddr {
		t.Errorf("direct event client = %v, want %v", events[2].Client, clientAddr)
	}
}

// TestShardClientAttribution is the shard analogue of TestClientAttribution.
func TestShardClientAttribution(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	sh := n.NewShard()
	recursiveAddr := netip.MustParseAddr("10.0.0.53")
	recursive := HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		if _, err := sh.Exchange(recursiveAddr, serverAddr, q); err != nil {
			return nil, err
		}
		return dns.NewResponse(q), nil
	})
	sh.Register(recursiveAddr, "recursive", RoleRecursive, time.Millisecond, recursive)

	var events []Event
	sh.AddTap(func(ev Event) { events = append(events, ev) })

	stub := netip.MustParseAddr("10.0.9.8")
	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	if _, err := sh.Exchange(stub, recursiveAddr, q); err != nil {
		t.Fatalf("stub exchange: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("captured %d events, want 2", len(events))
	}
	if events[0].Client != stub || events[1].Client != stub {
		t.Errorf("clients = %v, %v, want both %v", events[0].Client, events[1].Client, stub)
	}
}
