package udptransport

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

func startTCPServer(t *testing.T, h simnet.Handler) *TCPServer {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		wg.Wait()
	})
	return srv
}

func TestTCPQueryRoundTrip(t *testing.T) {
	srv := startTCPServer(t, echoHandler())
	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(21, dns.MustName("example.com"), dns.TypeTXT, true)
	resp, err := c.QueryTCP(srv.AddrPort(), q)
	if err != nil {
		t.Fatalf("QueryTCP: %v", err)
	}
	if resp.Header.ID != 21 || len(resp.Answer) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPMultipleQueriesOneConnection(t *testing.T) {
	srv := startTCPServer(t, echoHandler())
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := uint16(1); i <= 3; i++ {
		q := dns.NewQuery(i, dns.MustName("multi.example"), dns.TypeTXT, false)
		if err := writeFrame(conn, q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		pkt, err := readFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := dns.DecodeMessage(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != i {
			t.Fatalf("response %d has ID %d", i, resp.Header.ID)
		}
	}
}

// bigHandler produces a response too large for UDP but fine for TCP.
func bigHandler() simnet.Handler {
	return simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		r := dns.NewResponse(q)
		for i := 0; i < 40; i++ {
			r.Answer = append(r.Answer, dns.RR{
				Name: q.QName(), Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 1,
				Data: &dns.TXTData{Strings: []string{string(make([]byte, 200))}},
			})
		}
		return r, nil
	})
}

func TestTruncationFallbackToTCP(t *testing.T) {
	// UDP and TCP servers on the same port, like a real deployment.
	udpSrv, tcpSrv, err := ListenPair("127.0.0.1:0", bigHandler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	port := udpSrv.AddrPort().Port()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = udpSrv.Serve() }()
	go func() { defer wg.Done(); _ = tcpSrv.Serve() }()
	t.Cleanup(func() {
		_ = udpSrv.Close()
		_ = tcpSrv.Close()
		wg.Wait()
	})

	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(9, dns.MustName("big.example"), dns.TypeTXT, false)

	// Plain UDP truncates…
	udpResp, err := c.Query(netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port), q)
	if err != nil {
		t.Fatal(err)
	}
	if !udpResp.Header.TC {
		t.Fatal("expected truncation over UDP")
	}
	// …the fallback retrieves the full answer.
	full, err := c.QueryWithFallback(netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port), q)
	if err != nil {
		t.Fatalf("QueryWithFallback: %v", err)
	}
	if full.Header.TC || len(full.Answer) != 40 {
		t.Fatalf("fallback answer: tc=%t answers=%d", full.Header.TC, len(full.Answer))
	}
}

func TestQueryWithFallbackNoTruncation(t *testing.T) {
	srv := startServer(t, echoHandler())
	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(5, dns.MustName("small.example"), dns.TypeTXT, false)
	resp, err := c.QueryWithFallback(srv.AddrPort(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.TC || len(resp.Answer) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPServerErrorBecomesServfail(t *testing.T) {
	srv := startTCPServer(t, simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		return nil, errors.New("boom")
	}))
	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(7, dns.MustName("x.example"), dns.TypeA, false)
	resp, err := c.QueryTCP(srv.AddrPort(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeServFail {
		t.Fatalf("rcode = %s", resp.Header.RCode)
	}
}

func TestTCPServeAfterClose(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Serve err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return")
	}
}

func TestTCPListenValidation(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := ListenTCP("bogus", echoHandler()); err == nil {
		t.Fatal("bad address accepted")
	}
}
