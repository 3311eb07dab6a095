package authserver

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// TestPacketCacheConcurrentInvalidationUnderFaults drives the packet cache
// the way a sharded fault experiment does: several clients hammer the server
// through independently-clocked shards whose links drop packets (so every
// client retries and refills cache entries mid-flight), while the cache is
// flushed over and over until the clients are done. Run under -race this
// pins the cache's concurrency contract; the correctness assertions pin
// that a flush never serves a stale or torn response.
func TestPacketCacheConcurrentInvalidationUnderFaults(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", true))
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	serverAddr := netip.MustParseAddr("192.0.2.53")
	if err := net.Register(serverAddr, "ns", simnet.RoleSLD, 10*time.Millisecond, srv); err != nil {
		t.Fatal(err)
	}

	const (
		clients   = 4
		perClient = 300
	)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sh := net.NewShard()
			sh.SetFaultPlan(serverAddr, faults.Plan{Seed: int64(c + 1), LossRate: 0.3})
			src := netip.AddrFrom4([4]byte{10, 0, byte(c), 1})
			for i := 0; i < perClient; i++ {
				q := dns.NewQuery(uint16(i+1), dns.MustName("www.example.com"), dns.TypeA, true)
				q.EDNS.DO = true
				var resp *dns.Message
				var err error
				for attempt := 0; attempt < 50; attempt++ {
					resp, err = sh.Exchange(src, serverAddr, q)
					if err == nil || !faults.IsTransient(err) {
						break
					}
				}
				if err != nil {
					errs[c] = fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if resp.Header.RCode != dns.RCodeNoError || len(resp.Answer) != 2 {
					// A signed answer is always A+RRSIG; anything else means
					// a flush raced a fill into serving a torn entry.
					errs[c] = fmt.Errorf("client %d query %d: torn response: rcode=%s answers=%d",
						c, i, resp.Header.RCode, len(resp.Answer))
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	flushes := 0
	for running := true; running; flushes++ {
		srv.Cache().Invalidate()
		select {
		case <-done:
			running = false
		default:
			runtime.Gosched()
		}
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d flushes while the clients ran", flushes)

	// The cache survived the churn and still serves correctly.
	r, _ := queryWire(t, srv, 9999, "www.example.com", dns.TypeA)
	if r.Header.RCode != dns.RCodeNoError || len(r.Answer) == 0 {
		t.Fatalf("post-churn response: %+v", r.Header)
	}
	if _, misses := srv.Cache().Stats(); misses == 0 {
		t.Fatalf("cache recorded no misses despite %d flushes", flushes)
	}
}
