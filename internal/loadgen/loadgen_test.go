package loadgen

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

func collect(t *testing.T, cfg ScheduleConfig, perMinute []int) []Event {
	t.Helper()
	s, err := NewSchedule(cfg, sliceSource(perMinute))
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for {
		ev, err := s.Next()
		if err != nil {
			break
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestScheduleDeterministic(t *testing.T) {
	trace, err := dataset.GenerateTrace(dataset.TraceConfig{
		Minutes: 5, Seed: 7, MinRate: 160_000, MaxRate: 360_000, Scale: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScheduleConfig{Clients: 100, PopSize: 1000, Seed: 42}
	a := collect(t, cfg, trace.PerMinute)
	b := collect(t, cfg, trace.PerMinute)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := collect(t, cfg, trace.PerMinute)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleShape(t *testing.T) {
	cfg := ScheduleConfig{Clients: 10, PopSize: 50, Seed: 1}
	evs := collect(t, cfg, []int{30, 0, 45})
	if len(evs) != 75 {
		t.Fatalf("got %d events, want 75", len(evs))
	}
	var prev time.Duration = -1
	clients := map[int32]bool{}
	for i, ev := range evs {
		if ev.At < prev {
			t.Fatalf("event %d out of order: %v after %v", i, ev.At, prev)
		}
		prev = ev.At
		if ev.Client < 0 || int(ev.Client) >= cfg.Clients {
			t.Fatalf("client %d out of range", ev.Client)
		}
		if ev.Name < 0 || int(ev.Name) >= cfg.PopSize {
			t.Fatalf("name index %d out of range", ev.Name)
		}
		clients[ev.Client] = true
	}
	// Minute 1 is empty, so event 30 starts at minute 2.
	if evs[30].At < 2*time.Minute {
		t.Fatalf("event after empty minute at %v", evs[30].At)
	}
	if len(clients) < 5 {
		t.Fatalf("only %d distinct clients over 75 events", len(clients))
	}

	capped := collect(t, ScheduleConfig{Clients: 10, PopSize: 50, Seed: 1, MaxQueries: 10}, []int{30, 0, 45})
	if len(capped) != 10 {
		t.Fatalf("cap ignored: %d events", len(capped))
	}
}

func TestScheduleConfigErrors(t *testing.T) {
	if _, err := NewSchedule(ScheduleConfig{Clients: 0, PopSize: 10}, sliceSource(nil)); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := NewSchedule(ScheduleConfig{Clients: 1, PopSize: 1}, sliceSource(nil)); err == nil {
		t.Error("tiny population accepted")
	}
	if _, err := NewSchedule(ScheduleConfig{Clients: 1, PopSize: 10}, nil); err == nil {
		t.Error("nil source accepted")
	}
}

// testServer runs a handler behind real UDP+TCP loopback listeners.
func testServer(t *testing.T, h simnet.Handler) netip.AddrPort {
	t.Helper()
	srv, tcpSrv, err := udptransport.ListenPair("127.0.0.1:0", h, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWorkers(32)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	go func() { _ = tcpSrv.Serve() }()
	t.Cleanup(func() { _ = tcpSrv.Close() })
	return srv.AddrPort()
}

func testNames(popSize int) func(int) dns.Name {
	names := make([]dns.Name, popSize)
	for i := range names {
		names[i] = dns.MustName(fmt.Sprintf("name%04d.example", i))
	}
	return func(i int) dns.Name { return names[i] }
}

// TestReplayTruncationFallbackUnderLoad is the satellite loopback test:
// a fraction of names answer oversized, so the UDP listener truncates and
// the generator must complete them over TCP — under concurrent load, with
// the latency attribution staying consistent.
func TestReplayTruncationFallbackUnderLoad(t *testing.T) {
	big := strings.Repeat("x", 250)
	handler := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		resp := dns.NewResponse(q)
		resp.Header.AA = true
		// Name indices ending in 0 answer ~5 KB of TXT — past the 4096-byte
		// UDP ceiling, so the UDP path sets TC and drops the body.
		if strings.HasSuffix(q.Question[0].Name.FirstLabel(), "0") {
			strs := make([]string, 20)
			for i := range strs {
				strs[i] = big
			}
			resp.Answer = []dns.RR{{
				Name: q.Question[0].Name, Type: dns.TypeTXT, Class: dns.ClassIN,
				Data: &dns.TXTData{Strings: strs},
			}}
		}
		return resp, nil
	})
	addr := testServer(t, handler)

	r, err := New(Config{
		Server:    addr,
		Schedule:  ScheduleConfig{Clients: 200, PopSize: 100, Seed: 9, MaxQueries: 2000},
		PerMinute: []int{5000},
		Names:     testNames(100),
		Mode:      ModeClosed,
		Workers:   16,
		Timeout:   2 * time.Second,
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 2000 {
		t.Fatalf("sent %d, want 2000", rep.Sent)
	}
	if rep.Completed != rep.Sent {
		t.Fatalf("completed %d of %d (timeouts %d, tcp errors %d)",
			rep.Completed, rep.Sent, rep.Timeouts, rep.TCPErrors)
	}
	// The Zipf head lands on name0000, so truncations are plentiful.
	if rep.Truncated == 0 || rep.TCPFallbacks != rep.Truncated {
		t.Fatalf("truncated=%d fallbacks=%d", rep.Truncated, rep.TCPFallbacks)
	}
	if rep.TCPErrors != 0 {
		t.Fatalf("tcp errors: %d", rep.TCPErrors)
	}
	// Latency attribution: every completion is in the latency histogram,
	// every fallback's TCP leg in the fallback histogram, and a fallback's
	// end-to-end latency can never undercut its TCP leg.
	if got := rep.Latency.Count(); got != uint64(rep.Completed) {
		t.Fatalf("latency histogram holds %d, completed %d", got, rep.Completed)
	}
	if got := rep.Fallback.Count(); got != uint64(rep.TCPFallbacks) {
		t.Fatalf("fallback histogram holds %d, fallbacks %d", got, rep.TCPFallbacks)
	}
	if rep.Latency.Max() < rep.Fallback.Min() {
		t.Fatalf("max end-to-end %v < min tcp leg %v", rep.Latency.Max(), rep.Fallback.Min())
	}
	if rep.QPS <= 0 {
		t.Fatal("no throughput reported")
	}
}

// TestReplayRetryOnSlowFirstAnswer drives the timeout/retry path: the first
// query for each name stalls past the client timeout, so the generator
// re-sends; the same-ID design lets whichever answer lands first complete
// the query.
func TestReplayRetryOnSlowFirstAnswer(t *testing.T) {
	var firsts atomic.Int64
	seen := make(map[dns.Name]bool)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	handler := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		<-mu
		first := !seen[q.Question[0].Name]
		seen[q.Question[0].Name] = true
		mu <- struct{}{}
		if first {
			firsts.Add(1)
			time.Sleep(250 * time.Millisecond)
		}
		return dns.NewResponse(q), nil
	})
	addr := testServer(t, handler)

	r, err := New(Config{
		Server:    addr,
		Schedule:  ScheduleConfig{Clients: 8, PopSize: 20, Seed: 3, MaxQueries: 60},
		PerMinute: []int{60},
		Names:     testNames(20),
		Mode:      ModeClosed,
		Workers:   8,
		Timeout:   100 * time.Millisecond,
		Retries:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("slow first answers triggered no retries")
	}
	if rep.Completed != rep.Sent {
		t.Fatalf("completed %d of %d (timeouts %d)", rep.Completed, rep.Sent, rep.Timeouts)
	}
}

// TestOpenLoopPacing checks that open-loop mode actually follows the
// (compressed) schedule clock rather than blasting as fast as possible.
func TestOpenLoopPacing(t *testing.T) {
	handler := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		return dns.NewResponse(q), nil
	})
	addr := testServer(t, handler)

	// Two trace minutes compressed 600x: ~200ms of wall-clock pacing.
	r, err := New(Config{
		Server:    addr,
		Schedule:  ScheduleConfig{Clients: 10, PopSize: 20, Seed: 5},
		PerMinute: []int{40, 40},
		Names:     testNames(20),
		Mode:      ModeOpen,
		Compress:  600,
		Workers:   4,
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 80 {
		t.Fatalf("completed %d of 80", rep.Completed)
	}
	// The last event of minute 2 sits near trace-time 2min => ~200ms wall.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("open loop finished in %v — schedule not paced", elapsed)
	}
}

// TestRunContextCancel ensures a cancelled run still returns a partial
// report instead of hanging.
func TestRunContextCancel(t *testing.T) {
	handler := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		return dns.NewResponse(q), nil
	})
	addr := testServer(t, handler)

	ctx, cancel := context.WithCancel(context.Background())
	r, err := New(Config{
		Server:    addr,
		Schedule:  ScheduleConfig{Clients: 4, PopSize: 10, Seed: 1},
		PerMinute: []int{1000},
		Names:     testNames(10),
		Mode:      ModeOpen, // real-time pacing: the run would take a minute
		Workers:   2,
		Progress:  func(minute int, sent int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan *Report, 1)
	go func() {
		rep, err := r.Run(ctx)
		if err != nil {
			t.Errorf("cancelled run errored: %v", err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if rep.Sent >= 1000 {
			t.Fatalf("cancel had no effect: %d sent", rep.Sent)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

func TestReportRender(t *testing.T) {
	rep := &Report{
		Mode: ModeOpen, Clients: 10, Workers: 4, Seed: 1,
		Counters: Counters{Sent: 100, Completed: 99, Timeouts: 1, Truncated: 5, TCPFallbacks: 5},
		Wall:     time.Second, QPS: 99,
		Latency: histogramWith(99), Fallback: histogramWith(5),
	}
	out := rep.Render()
	for _, want := range []string{"queries sent", "tcp fallbacks", "latency p99", "max schedule lateness"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func histogramWith(n int) *metrics.Histogram {
	h := metrics.NewHistogram()
	for i := 0; i < n; i++ {
		h.Record(time.Duration(i+1) * time.Millisecond)
	}
	return h
}
