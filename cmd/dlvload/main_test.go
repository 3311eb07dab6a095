package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// startServer boots a serving tier over real loopback UDP+TCP listeners,
// mirroring what cmd/resolved does, and returns its address.
func startServer(t *testing.T, popSize int, plan *faults.Plan, breaker bool) (string, *serve.Service) {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: popSize, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: 1, Population: pop, Extra: dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.ResolverConfig(true, true)
	if breaker {
		cfg.Resilience = &resolver.Resilience{
			TCPFallback: true,
			Breaker:     &faults.BreakerConfig{},
		}
	}
	// SharedInfra stays off when a fault plan is active: warm-up under a
	// full registry outage cannot validate the registry, exactly like a
	// cold fleet coming up mid-outage.
	svc, err := serve.Build(u, cfg, serve.Options{
		Workers: 2, SharedInfra: plan == nil, Plan: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, tcpSrv, err := udptransport.ListenPair("127.0.0.1:0", svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWorkers(2)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	go func() { _ = tcpSrv.Serve() }()
	t.Cleanup(func() { _ = tcpSrv.Close() })
	svc.AttachTransports(srv, tcpSrv)
	return srv.AddrPort().String(), svc
}

// TestReplayAgainstLiveServer is the loopback end-to-end: dlvload replays a
// generated trace against a real serving tier and prints both halves of the
// scorecard.
func TestReplayAgainstLiveServer(t *testing.T) {
	addr, svc := startServer(t, 300, nil, false)
	var out bytes.Buffer
	err := run([]string{
		"-server", addr, "-domains", "300", "-seed", "1",
		"-minutes", "1", "-scale", "2000", "-clients", "50",
		"-mode", "closed", "-window", "8", "-max-queries", "120", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"trace replay", "queries sent", "latency p99",
		"server-side delta", "packet-cache hits", "infra-cache hits",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if st := svc.ResolverStats(); st.Resolutions == 0 {
		t.Error("server resolved nothing during the replay")
	}
}

// TestReplayFromTraceFile replays a trace file in tracegen's format.
func TestReplayFromTraceFile(t *testing.T) {
	addr, _ := startServer(t, 300, nil, false)
	trace, err := dataset.GenerateTrace(dataset.TraceConfig{
		Minutes: 2, Seed: 3, MinRate: 160_000, MaxRate: 360_000, Scale: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.csv"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteTrace(f, trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = run([]string{
		"-server", addr, "-domains", "300", "-trace", path,
		"-clients", "20", "-mode", "closed", "-window", "4", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("replay from file failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replaying trace "+path) {
		t.Errorf("trace file not announced:\n%s", out.String())
	}
}

// TestFaultPlanReplayBoundedByBreaker is the acceptance fault run: registry
// loss plus a full outage, served by the resilient resolver. The replay must
// complete and the circuit breaker must keep the server's upstream retry
// amplification bounded (E17: open breaker skips DLV instead of hammering
// the dead registry).
func TestFaultPlanReplayBoundedByBreaker(t *testing.T) {
	plan := &faults.Plan{
		Seed: 7, LossRate: 0.2,
		Outages: []faults.Window{{Start: 0, End: 1 << 62}},
	}
	addr, svc := startServer(t, 300, plan, true)
	beforeStats := svc.ResolverStats()

	var out bytes.Buffer
	err := run([]string{
		"-server", addr, "-domains", "300", "-seed", "1",
		"-minutes", "1", "-scale", "2000", "-clients", "50",
		"-mode", "closed", "-window", "8", "-max-queries", "150",
		"-timeout", "5s", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("fault-plan replay failed: %v\n%s", err, out.String())
	}
	st := svc.ResolverStats()
	resolutions := st.Resolutions - beforeStats.Resolutions
	if resolutions == 0 {
		t.Fatal("no resolutions completed under the fault plan")
	}
	if st.BreakerOpens == 0 {
		t.Error("breaker never opened under a full registry outage")
	}
	// E17's bound: with the breaker open, dead-registry sends stop, so
	// upstream retries stay far below the no-breaker hammering regime
	// (which retries every DLV lookup to deadline).
	if st.Retries > resolutions {
		t.Errorf("retry amplification unbounded: %d retries for %d resolutions",
			st.Retries, resolutions)
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "not-an-addr"}, &out); err == nil {
		t.Error("bad server address accepted")
	}
	if err := run([]string{"-server", "127.0.0.1:1", "-mode", "sideways", "-stats=false", "-domains", "10"}, &out); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-server", "127.0.0.1:1", "-trace", "/does/not/exist", "-domains", "10"}, &out); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestStatsScrapeFailureIsActionable: pointing dlvload at a dead port fails
// fast at the pre-run scrape, not after a full replay of timeouts.
func TestStatsScrapeFailureIsActionable(t *testing.T) {
	var out bytes.Buffer
	start := time.Now()
	err := run([]string{
		"-server", "127.0.0.1:9", "-domains", "10", "-timeout", "200ms",
		"-minutes", "1", "-scale", "100000", "-clients", "2", "-q",
	}, &out)
	if err == nil {
		t.Fatal("dead server accepted")
	}
	if !strings.Contains(err.Error(), "stats") {
		t.Errorf("error not about the stats scrape: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("scrape failure took too long to surface")
	}
}
