package udptransport

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// slowHandler blocks each query until release is closed, so shutdown tests
// can hold queries in flight deliberately.
func slowHandler(entered chan<- struct{}, release <-chan struct{}) simnet.Handler {
	return simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		entered <- struct{}{}
		<-release
		r := dns.NewResponse(q)
		r.Header.RCode = dns.RCodeNoError
		return r, nil
	})
}

func TestShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", slowHandler(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWorkers(4)
	go func() { _ = srv.Serve() }()

	// Put two queries in flight. The short client timeout keeps the test
	// fast when the drained responses race the socket close and drop.
	c := &Client{Timeout: 500 * time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			q := dns.NewQuery(id, dns.MustName("drain.example"), dns.TypeA, false)
			// The response races the socket close; the exchange may fail,
			// the point is that the handler completes.
			_, _ = c.Query(srv.AddrPort(), q)
		}(uint16(i + 1))
	}
	<-entered
	<-entered

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()
	select {
	case <-done:
		t.Fatal("Shutdown returned while queries were still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown hung after handlers released")
	}
	wg.Wait()
	st := srv.Stats()
	if st.Queries != 2 || st.InFlight != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
	if st.MaxInFlight != 2 {
		t.Fatalf("max in-flight = %d, want 2", st.MaxInFlight)
	}
}

func TestShutdownTimesOutOnStuckHandler(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed before Shutdown returns
	srv, err := Listen("127.0.0.1:0", slowHandler(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWorkers(2)
	go func() { _ = srv.Serve() }()
	c := &Client{Timeout: 200 * time.Millisecond}
	go func() {
		q := dns.NewQuery(3, dns.MustName("stuck.example"), dns.TypeA, false)
		_, _ = c.Query(srv.AddrPort(), q)
	}()
	<-entered
	if err := srv.Shutdown(100 * time.Millisecond); !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Shutdown = %v, want ErrDrainTimeout", err)
	}
	close(release)
}

func TestUDPStatsCounters(t *testing.T) {
	srv := startServer(t, echoHandler())
	c := &Client{Timeout: 2 * time.Second}
	for i := 0; i < 3; i++ {
		q := dns.NewQuery(uint16(i+1), dns.MustName("count.example"), dns.TypeTXT, false)
		if _, err := c.Query(srv.AddrPort(), q); err != nil {
			t.Fatal(err)
		}
	}
	// The server counts a response after its write returns, and the query
	// leaves flight after that: the client can hold its third answer first.
	deadline := time.Now().Add(2 * time.Second)
	st := srv.Stats()
	for (st.Responses != 3 || st.InFlight != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Queries != 3 || st.Responses != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Malformed != 0 || st.Truncated != 0 || st.ServFails != 0 {
		t.Fatalf("unexpected error counters: %+v", st)
	}
}

func TestTCPShutdownStopsNewQueries(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(21, dns.MustName("tcp.example"), dns.TypeTXT, false)
	if _, err := c.QueryTCP(srv.AddrPort(), q); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := c.QueryTCP(srv.AddrPort(), q); err == nil {
		t.Fatal("query accepted after shutdown")
	}
	st := srv.Stats()
	if st.Queries != 1 || st.Conns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
