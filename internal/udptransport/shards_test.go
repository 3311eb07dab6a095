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

// startShardedServer runs a multi-shard server on a loopback port with the
// given worker-pool width (applied before Serve — SetWorkers is not safe
// afterwards). On platforms without SO_REUSEPORT the server transparently
// degrades to one shard; the tests below assert behavior, not shard count,
// except where they check the fallback contract explicitly.
func startShardedServer(t *testing.T, h simnet.Handler, n, workers int) *Server {
	t.Helper()
	srv, err := ListenShards("127.0.0.1:0", h, n)
	if err != nil {
		t.Fatalf("ListenShards: %v", err)
	}
	srv.SetWorkers(workers)
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

func TestListenShardsCount(t *testing.T) {
	srv, err := ListenShards("127.0.0.1:0", echoHandler(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	want := 4
	if !reusePortAvailable {
		want = 1 // graceful single-socket fallback off Linux
	}
	if got := srv.Shards(); got != want {
		t.Fatalf("Shards() = %d, want %d", got, want)
	}
	// All shards share one concrete port.
	port := srv.AddrPort().Port()
	if port == 0 {
		t.Fatal("unresolved port")
	}

	// n <= 0 degrades to one socket, never an error.
	one, err := ListenShards("127.0.0.1:0", echoHandler(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = one.Close() }()
	if one.Shards() != 1 {
		t.Fatalf("Shards() = %d for n=0, want 1", one.Shards())
	}
}

func TestServeTwiceRejected(t *testing.T) {
	srv := startShardedServer(t, echoHandler(), 2, 2)
	// A round trip proves the background Serve owns the read loops before
	// the duplicate call is made — otherwise this call could win the race
	// and block serving instead of being rejected.
	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(1, dns.MustName("twice.example"), dns.TypeTXT, false)
	if _, err := c.Query(srv.AddrPort(), q); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("second Serve = %v, want a serve-twice error", err)
	}
}

// TestShardedQueriesSpreadAndAnswer drives queries from many distinct
// client sockets so the kernel's 4-tuple hash can spread them, and checks
// every one is answered and the merged counters account for all of them.
func TestShardedQueriesSpreadAndAnswer(t *testing.T) {
	srv := startShardedServer(t, echoHandler(), 4, 4)
	const total = 64
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			c := &Client{Timeout: 2 * time.Second}
			q := dns.NewQuery(id, dns.MustName("spread.example"), dns.TypeTXT, false)
			resp, err := c.Query(srv.AddrPort(), q)
			if err != nil {
				errs <- err
				return
			}
			if resp.Header.ID != id {
				errs <- errors.New("ID mismatch in matched response")
			}
		}(uint16(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A client can read its response before the server has counted it and
	// left the handler: wait for the last one to leave.
	deadline := time.Now().Add(2 * time.Second)
	st := srv.Stats()
	for (st.Responses != total || st.InFlight != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Queries != total || st.Responses != total {
		t.Fatalf("merged stats = %+v, want %d queries and responses", st, total)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after quiesce", st.InFlight)
	}
}

func TestShardedShutdownDrainsInFlight(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv, err := ListenShards("127.0.0.1:0", slowHandler(entered, release), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Workers split per shard (ceil(16/4) = 4 each), so even if the kernel
	// hashes every client onto one shard all four queries enter together.
	srv.SetWorkers(16)
	go func() { _ = srv.Serve() }()

	// Hold four queries in flight from four distinct sockets; the kernel
	// may land them on any subset of shards — the drain must cover all.
	c := &Client{Timeout: 500 * time.Millisecond}
	var wg sync.WaitGroup
	const inflight = 4
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			q := dns.NewQuery(id, dns.MustName("drain.example"), dns.TypeA, false)
			_, _ = c.Query(srv.AddrPort(), q)
		}(uint16(i + 1))
	}
	for i := 0; i < inflight; i++ {
		<-entered
	}

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
	if st.Queries != inflight || st.InFlight != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
	// Merged MaxInFlight sums per-shard watermarks, so it is exact here
	// regardless of how the kernel spread the four clients.
	if st.MaxInFlight != inflight {
		t.Fatalf("merged max in-flight = %d, want %d", st.MaxInFlight, inflight)
	}
}

func TestShardedShutdownTimesOutOnStuckHandler(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{}) // never closed before Shutdown returns
	srv, err := ListenShards("127.0.0.1:0", slowHandler(entered, release), 4)
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

// TestShardStatsMonotoneUnderLoad is the transport twin of the pool's
// monotone-stats test: client goroutines hammer a sharded server while a
// scraper repeatedly merges per-shard counters, and no merged counter may
// ever go backwards — each shard's snapshot is independent, so the merge
// must tolerate reading shard A before shard B advances. Run with -race.
func TestShardStatsMonotoneUnderLoad(t *testing.T) {
	srv := startShardedServer(t, echoHandler(), 4, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &Client{Timeout: 2 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := dns.NewQuery(uint16(i%65535+1), dns.MustName("mono.example"), dns.TypeTXT, false)
				if _, err := c.Query(srv.AddrPort(), q); err != nil {
					// Sends race server close at test end; only report
					// errors while the test is still running.
					select {
					case <-stop:
					default:
						t.Errorf("client %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}

	var prev Stats
	deadline := time.Now().Add(500 * time.Millisecond)
	for reads := 0; time.Now().Before(deadline); reads++ {
		st := srv.Stats()
		if st.Queries < prev.Queries || st.Responses < prev.Responses ||
			st.Malformed < prev.Malformed || st.Truncated < prev.Truncated ||
			st.ServFails < prev.ServFails || st.MaxInFlight < prev.MaxInFlight {
			t.Fatalf("merged counters went backwards on read %d:\n prev %+v\n  now %+v", reads, prev, st)
		}
		prev = st
	}
	close(stop)
	wg.Wait()
	// A final quiescent read still sits at or past the last observation.
	if st := srv.Stats(); st.Queries < prev.Queries {
		t.Fatalf("final stats below last observed: %+v < %+v", st, prev)
	}
	if st := srv.Stats(); st.Queries == 0 {
		t.Fatal("no queries observed — load loop never ran")
	}
}

// TestClientDiscardsStaleDatagrams pins the client re-read contract: a
// garbage datagram and a wrong-ID response arriving before the real answer
// are skipped (and counted), not returned as an error.
func TestClientDiscardsStaleDatagrams(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pc.Close() }()
	serverErr := make(chan error, 1)
	go func() {
		buf := make([]byte, maxPacket)
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			serverErr <- err
			return
		}
		q, err := dns.DecodeMessage(buf[:n])
		if err != nil {
			serverErr <- err
			return
		}
		// 1: garbage. 2: well-formed response under the wrong ID (a late
		// duplicate from a previous exchange on the same port). 3: the
		// real answer.
		if _, err := pc.WriteTo([]byte{0xde, 0xad}, from); err != nil {
			serverErr <- err
			return
		}
		stale := dns.NewResponse(q)
		stale.Header.ID = q.Header.ID + 1
		wire, err := stale.Encode()
		if err != nil {
			serverErr <- err
			return
		}
		if _, err := pc.WriteTo(wire, from); err != nil {
			serverErr <- err
			return
		}
		real := dns.NewResponse(q)
		real.Header.RCode = dns.RCodeNoError
		wire, err = real.Encode()
		if err != nil {
			serverErr <- err
			return
		}
		_, err = pc.WriteTo(wire, from)
		serverErr <- err
	}()

	c := &Client{Timeout: 2 * time.Second}
	q := dns.NewQuery(0x5151, dns.MustName("stale.example"), dns.TypeA, false)
	addr := pc.LocalAddr().(*net.UDPAddr).AddrPort()
	resp, err := c.Query(netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), addr.Port()), q)
	if err != nil {
		t.Fatalf("Query failed instead of re-reading past stale datagrams: %v", err)
	}
	if resp.Header.ID != q.Header.ID {
		t.Fatalf("matched response has ID %d, want %d", resp.Header.ID, q.Header.ID)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	if d := c.Discards(); d != 2 {
		t.Fatalf("Discards() = %d, want 2 (one garbage, one wrong-ID)", d)
	}
}
