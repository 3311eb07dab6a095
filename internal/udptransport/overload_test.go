package udptransport

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// sleepHandler answers after holding for d, so tests can saturate the gate.
func sleepHandler(d time.Duration) simnet.Handler {
	return simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		time.Sleep(d)
		r := dns.NewResponse(q)
		r.Header.RCode = dns.RCodeNoError
		return r, nil
	})
}

func startGatedServer(t *testing.T, h simnet.Handler, g *overload.Controller) *Server {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv.SetGate(g)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		wg.Wait()
		g.Close()
	})
	return srv
}

// TestGatedUDPShedsRefused saturates a 1-slot gate with a slow handler and
// checks that excess queries come back REFUSED quickly instead of queueing
// behind the slow one.
func TestGatedUDPShedsRefused(t *testing.T) {
	g := overload.New(overload.Config{MaxInFlight: 1, Exec: 1, QueueTarget: 5 * time.Millisecond})
	srv := startGatedServer(t, sleepHandler(300*time.Millisecond), g)
	c := &Client{Timeout: 2 * time.Second}

	var wg sync.WaitGroup
	rcodes := make([]dns.RCode, 6)
	for i := range rcodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := dns.NewQuery(uint16(i+1), dns.MustName("example.com"), dns.TypeA, false)
			resp, err := c.Query(srv.AddrPort(), q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			rcodes[i] = resp.Header.RCode
		}(i)
		time.Sleep(10 * time.Millisecond) // separate arrivals: first admits, rest shed
	}
	wg.Wait()
	var ok, refused int
	for _, rc := range rcodes {
		switch rc {
		case dns.RCodeNoError:
			ok++
		case dns.RCodeRefused:
			refused++
		default:
			t.Errorf("unexpected rcode %s", rc)
		}
	}
	if ok == 0 {
		t.Error("no query was served")
	}
	if refused == 0 {
		t.Error("no query was shed")
	}
	if st := g.Stats(); st.Sheds() == 0 {
		t.Errorf("gate counted no sheds: %+v", st)
	}
}

// TestGatedStatsBypass pins the storm-observability guarantee: a stats TXT
// query gets through a fully saturated gate.
func TestGatedStatsBypass(t *testing.T) {
	g := overload.New(overload.Config{MaxInFlight: 1, Exec: 1, QueueTarget: time.Millisecond})
	block := make(chan struct{})
	var once sync.Once
	h := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		// The first (saturating) query parks; everything else answers.
		if q.QName() != dns.MustName("_stats.resolved.invalid") {
			once.Do(func() { <-block })
		}
		r := dns.NewResponse(q)
		r.Header.RCode = dns.RCodeNoError
		return r, nil
	})
	srv := startGatedServer(t, h, g)
	defer close(block)
	c := &Client{Timeout: 2 * time.Second}

	// Saturate: one query holds the only slot.
	go func() {
		q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, false)
		_, _ = c.Query(srv.AddrPort(), q)
	}()
	time.Sleep(50 * time.Millisecond)

	// A normal query sheds...
	q := dns.NewQuery(2, dns.MustName("example.org"), dns.TypeA, false)
	resp, err := c.Query(srv.AddrPort(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Fatalf("saturated gate answered %s, want REFUSED", resp.Header.RCode)
	}
	// ...but the stats scrape does not.
	sq := dns.NewQuery(3, dns.MustName("_stats.resolved.invalid"), dns.TypeTXT, false)
	resp, err = c.Query(srv.AddrPort(), sq)
	if err != nil {
		t.Fatalf("stats scrape failed through a saturated gate: %v", err)
	}
	if resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("stats scrape rcode = %s", resp.Header.RCode)
	}
}

// TestGatedTCPShedsRefused checks the TCP shed path: framed REFUSED with
// the connection kept alive.
func TestGatedTCPShedsRefused(t *testing.T) {
	g := overload.New(overload.Config{MaxInFlight: 1, Exec: 1, QueueTarget: time.Millisecond})
	defer g.Close()
	block := make(chan struct{})
	h := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		<-block
		r := dns.NewResponse(q)
		r.Header.RCode = dns.RCodeNoError
		return r, nil
	})
	udpSrv, tcpSrv, err := ListenPair("127.0.0.1:0", h, 1)
	if err != nil {
		t.Fatal(err)
	}
	udpSrv.SetGate(g)
	go func() { _ = udpSrv.Serve() }()
	defer func() { _ = udpSrv.Close() }()
	tcpSrv.SetGate(g)
	go func() { _ = tcpSrv.Serve() }()
	defer func() { _ = tcpSrv.Close() }()

	// Saturate the shared window via UDP.
	c := &Client{Timeout: 2 * time.Second}
	go func() {
		q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, false)
		_, _ = c.Query(udpSrv.AddrPort(), q)
	}()
	time.Sleep(50 * time.Millisecond)

	q := dns.NewQuery(2, dns.MustName("example.org"), dns.TypeA, false)
	resp, err := c.QueryTCP(tcpSrv.AddrPort(), q)
	if err != nil {
		t.Fatalf("tcp query: %v", err)
	}
	if resp.Header.RCode != dns.RCodeRefused {
		t.Fatalf("tcp shed rcode = %s", resp.Header.RCode)
	}
	close(block)
}

// TestGatedShutdownDrains pins that a gated server still drains cleanly.
func TestGatedShutdownDrains(t *testing.T) {
	g := overload.New(overload.Config{MaxInFlight: 64, Exec: 4, QueueTarget: 100 * time.Millisecond})
	defer g.Close()
	srv, err := Listen("127.0.0.1:0", sleepHandler(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetGate(g)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c := &Client{Timeout: time.Second}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := dns.NewQuery(uint16(i+1), dns.MustName("example.com"), dns.TypeA, false)
			_, _ = c.Query(srv.AddrPort(), q)
		}(i)
	}
	time.Sleep(30 * time.Millisecond)
	if err := srv.Shutdown(2 * time.Second); err != nil && err != ErrClosed {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != ErrClosed {
		t.Fatalf("serve returned %v", err)
	}
	wg.Wait()
	if st := g.Stats(); st.InFlight != 0 {
		t.Errorf("gate leaked in-flight slots after drain: %+v", st)
	}
}
