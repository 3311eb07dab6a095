package simnet

import (
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
)

func TestShardClockIsolation(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, 25*time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	sh := n.NewShard()
	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	if _, err := sh.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatalf("shard Exchange: %v", err)
	}
	if got := sh.Now(); got != 50*time.Millisecond {
		t.Fatalf("shard clock = %v, want 50ms", got)
	}
	if got := n.Now(); got != 0 {
		t.Fatalf("global clock moved to %v on shard traffic", got)
	}
	// Aggregate stats are shared.
	if queries, bytes := n.Stats(); queries != 1 || bytes == 0 {
		t.Fatalf("Stats = (%d, %d), want shard traffic accounted", queries, bytes)
	}
}

func TestShardOverlayShadowsGlobal(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "global", RoleSLD, 25*time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	sh := n.NewShard()
	sh.Register(serverAddr, "private", RoleSLD, 5*time.Millisecond, echoHandler(true))

	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	var saw []Event
	sh.AddTap(func(ev Event) { saw = append(saw, ev) })
	resp, err := sh.Exchange(clientAddr, serverAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Z {
		t.Fatal("exchange reached the global server, not the shard overlay")
	}
	if sh.Now() != 10*time.Millisecond {
		t.Fatalf("shard clock = %v, want overlay latency 10ms", sh.Now())
	}
	if len(saw) != 1 || saw[0].DstName != "private" {
		t.Fatalf("shard tap saw %+v", saw)
	}
	// The global path still reaches the global server.
	if resp, err := n.Exchange(clientAddr, serverAddr, q); err != nil || resp.Header.Z {
		t.Fatalf("global exchange: resp=%+v err=%v", resp, err)
	}
}

// TestConcurrentShardExchange drives many shards through the shared network
// at once; run under -race it guards the admit/account/tap paths.
func TestConcurrentShardExchange(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, 25*time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	var globalEvents int
	var globalMu sync.Mutex
	n.AddTap(func(Event) {
		globalMu.Lock()
		globalEvents++
		globalMu.Unlock()
	})

	const shards, perShard = 8, 50
	var wg sync.WaitGroup
	clocks := make([]time.Duration, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := n.NewShard()
			for j := 0; j < perShard; j++ {
				q := dns.NewQuery(uint16(j), dns.MustName("example.com"), dns.TypeA, true)
				if _, err := sh.Exchange(clientAddr, serverAddr, q); err != nil {
					t.Errorf("shard %d: %v", i, err)
					return
				}
			}
			clocks[i] = sh.Now()
		}(i)
	}
	wg.Wait()

	for i, c := range clocks {
		if want := time.Duration(perShard) * 50 * time.Millisecond; c != want {
			t.Errorf("shard %d clock = %v, want %v", i, c, want)
		}
	}
	if queries, _ := n.Stats(); queries != shards*perShard {
		t.Errorf("total queries = %d, want %d", queries, shards*perShard)
	}
	globalMu.Lock()
	defer globalMu.Unlock()
	if globalEvents != shards*perShard {
		t.Errorf("global tap saw %d events, want %d", globalEvents, shards*perShard)
	}
}

// TestRootShardIsTheNetwork pins that the network's own clock domain is a
// shard like any other: one clock behind Network and Root, the root's taps
// as the global taps (fired once for root traffic, after the shard's own
// for any other shard's), and network-installed fault plans that are the
// root's alone.
func TestRootShardIsTheNetwork(t *testing.T) {
	n := New()
	if err := n.Register(serverAddr, "ns.test", RoleSLD, 25*time.Millisecond, echoHandler(false)); err != nil {
		t.Fatal(err)
	}
	var order []string
	n.AddTap(func(Event) { order = append(order, "global") })

	q := dns.NewQuery(1, dns.MustName("example.com"), dns.TypeA, true)
	if _, err := n.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Root().Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatal(err)
	}
	if n.Now() != 100*time.Millisecond || n.Now() != n.Root().Now() {
		t.Fatalf("network clock %v, root clock %v, want both 100ms", n.Now(), n.Root().Now())
	}
	if len(order) != 2 {
		t.Fatalf("global tap fired %d times for 2 root exchanges", len(order))
	}

	sh := n.NewShard()
	sh.AddTap(func(Event) { order = append(order, "shard") })
	order = nil
	if _, err := sh.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "shard" || order[1] != "global" {
		t.Fatalf("tap order on a shard exchange = %v, want [shard global]", order)
	}

	n.SetFaultPlan(serverAddr, faults.Plan{})
	if _, ok := n.Root().FaultStats(serverAddr); !ok {
		t.Fatal("plan installed through the network is not the root shard's")
	}
	if _, ok := n.NewShard().FaultStats(serverAddr); ok {
		t.Fatal("a new shard sees the network's fault plan")
	}
	n.ResetTaps()
	order = nil
	if _, err := n.Exchange(clientAddr, serverAddr, q); err != nil {
		t.Fatal(err)
	}
	if st, _ := n.FaultStats(serverAddr); len(order) != 0 || st.Attempts != 1 {
		t.Fatalf("after ResetTaps: %d tap calls, %d attempts on the root plan; want 0 and 1", len(order), st.Attempts)
	}
}
