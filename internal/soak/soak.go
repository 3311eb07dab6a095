// Package soak is the deterministic chaos-soak harness for the serving
// tier. It boots the full production stack — resolver pool, admission
// controller, real UDP and TCP listeners on loopback — injects a seeded
// fault plan on the registry link, drives a closed-loop cache-busting load
// through it, and checks the robustness invariants the tier promises:
//
//   - no deadlock: the load completes and both listeners drain inside
//     their deadlines,
//   - the stats surface stays scrapeable over the wire throughout, and
//     every monotone counter it exports only ever advances,
//   - the admission controller actually sheds under the storm, and
//   - once the storm ends, health returns to Healthy.
//
// The fault plan is a pure function of the seed (PlanForSeed), so a
// failing soak reproduces from its logged seed alone. `make soak` runs it
// under the race detector.
package soak

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/loadgen"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// The soak's fixed shape: a tight admission controller (both shed layers
// fire) under a closed-loop window well past its in-flight cap.
const (
	// soakPopSize is the served population.
	soakPopSize = 1500
	// soakQueries is the total load: enough wall time for the scraper to
	// poll the surface dozens of times mid-storm.
	soakQueries = 50_000
	// soakWindow is the closed-loop in-flight window; it deliberately
	// exceeds soakMaxInFlight so the admission window is contested.
	soakWindow = 128
	// soakMaxInFlight and soakQueueTarget configure the admission
	// controller.
	soakMaxInFlight = 16
	soakQueueTarget = 3 * time.Millisecond
	// soakScrapeEvery is the over-the-wire stats poll period.
	soakScrapeEvery = 40 * time.Millisecond
	// soakRecoverDeadline bounds how long health may take to return to
	// Healthy after the storm (the shed-rate window ages out in about two
	// seconds).
	soakRecoverDeadline = 5 * time.Second
	// soakDrainDeadline bounds listener shutdown.
	soakDrainDeadline = 5 * time.Second
)

// Config parameterizes one soak run; Seed 0 is a valid (and distinct) seed.
type Config struct {
	// Seed derives the fault plan, the population, and the load schedule.
	Seed int64
	// Log receives progress lines; nil discards them.
	Log func(format string, args ...any)
}

// PlanForSeed derives the registry-link fault plan from the seed alone:
// moderate loss, forced truncation, latency jitter with spikes, a flap
// cycle, and one or two hard outage windows, all in the shard's simulated
// clock. Same seed, same plan, byte for byte.
func PlanForSeed(seed int64) faults.Plan {
	rng := rand.New(rand.NewSource(seed))
	plan := faults.Plan{
		Seed:         seed,
		LossRate:     0.05 + 0.20*rng.Float64(),
		TruncateRate: 0.03 + 0.07*rng.Float64(),
		JitterMax:    time.Duration(1+rng.Intn(3)) * time.Millisecond,
		SpikeRate:    0.01 + 0.04*rng.Float64(),
		SpikeLatency: time.Duration(20+rng.Intn(60)) * time.Millisecond,
		// The shard clock advances by simulated link latency per exchange,
		// so a few simulated seconds cover the whole soak; the flap cycle
		// and outage windows are sized to actually intersect it.
		FlapPeriod: time.Duration(2+rng.Intn(3)) * time.Second,
	}
	plan.FlapDown = time.Duration((0.1 + 0.2*rng.Float64()) * float64(plan.FlapPeriod))
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		start := time.Duration(rng.Intn(3000)) * time.Millisecond
		plan.Outages = append(plan.Outages, faults.Window{
			Start: start,
			End:   start + time.Duration(500+rng.Intn(500))*time.Millisecond,
		})
	}
	return plan
}

// Result is one soak run's scorecard.
type Result struct {
	Plan faults.Plan

	// Client-side outcomes.
	Sent, Completed, Refused, Timeouts int64

	// Scrapes counts successful over-the-wire stats polls; ScrapeErrors
	// counts polls that failed (tolerated under storm — the surface must
	// stay *mostly* reachable, and every success must be monotone).
	Scrapes, ScrapeErrors int

	// Violations are monotonicity breaches observed by the scraper; a
	// passing soak has none.
	Violations []string

	// Server-side deltas over the whole run.
	Sheds, WatchdogTrips uint64
	BreakerOpens         int

	// RecoveredIn is how long after the storm health reached Healthy.
	RecoveredIn time.Duration
	FinalHealth overload.Health
}

// monotone is the set of counters the scraper checks; each must never
// decrease between successive successful scrapes.
func monotone(s serve.Snapshot) map[string]uint64 {
	return map[string]uint64{
		"resolver_resolutions": uint64(s.Resolver.Resolutions),
		"resolver_cache_hits":  uint64(s.Resolver.CacheHits),
		"udp_queries":          s.UDP.Queries,
		"udp_responses":        s.UDP.Responses,
		"tcp_queries":          s.TCP.Queries,
		"ovl_admitted":         s.Overload.Admitted,
		"ovl_sheds":            s.Overload.Sheds(),
		"ovl_watchdog_trips":   s.Overload.WatchdogTrips,
	}
}

// Run executes one chaos soak and reports what it saw. It returns an
// error only when the harness itself cannot run (bind failure, bad
// config); invariant breaches are returned in the Result for the caller
// to assert on, so a test failure shows the full scorecard.
func Run(cfg Config) (*Result, error) {
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	plan := PlanForSeed(cfg.Seed)
	res := &Result{Plan: plan}

	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: soakPopSize, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	u, err := universe.Build(universe.Options{Seed: cfg.Seed, Population: pop, Extra: dataset.SecureDomains()})
	if err != nil {
		return nil, err
	}
	gate := overload.New(overload.Config{
		MaxInFlight: soakMaxInFlight,
		Exec:        2,
		QueueTarget: soakQueueTarget,
	})
	svc, err := serve.Build(u, u.ResolverConfig(true, true), serve.Options{
		Workers: 2, SharedInfra: true, Plan: &plan, Overload: gate, Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	udp, err := udptransport.Listen("127.0.0.1:0", svc)
	if err != nil {
		return nil, err
	}
	tcp, err := udptransport.ListenTCP("127.0.0.1:0", svc)
	if err != nil {
		_ = udp.Close()
		return nil, err
	}
	udp.SetGate(gate)
	tcp.SetGate(gate)
	svc.AttachTransports(udp, tcp)
	go func() { _ = udp.Serve() }()
	go func() { _ = tcp.Serve() }()
	addr := udp.AddrPort()
	before := svc.Snapshot()

	// The scraper is the observability invariant: it polls the live stats
	// surface over the wire for the whole storm, recording any counter
	// that moves backwards. Scrape failures are counted, not fatal — the
	// stats name bypasses admission, but the box is saturated on purpose.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		client := &udptransport.Client{Timeout: 500 * time.Millisecond}
		var last map[string]uint64
		t := time.NewTicker(soakScrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
			}
			snap, err := serve.FetchSnapshot(client, addr)
			if err != nil {
				res.ScrapeErrors++
				continue
			}
			res.Scrapes++
			cur := monotone(snap)
			for k, v := range cur {
				if last != nil && v < last[k] {
					res.Violations = append(res.Violations,
						fmt.Sprintf("%s went backwards: %d -> %d (scrape %d)", k, last[k], v, res.Scrapes))
				}
			}
			last = cur
		}
	}()

	// The storm: closed-loop, cache-busting, with an in-flight window well
	// past soakMaxInFlight so the admission window and queue deadline are both
	// contested while the registry link misbehaves underneath.
	names := make([]dns.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}
	runner, err := loadgen.New(loadgen.Config{
		Server: addr,
		Schedule: loadgen.ScheduleConfig{
			Clients: 64, PopSize: len(names), Seed: cfg.Seed,
			MaxQueries: soakQueries, Uniform: true,
		},
		PerMinute: []int{soakQueries},
		Names:     func(i int) dns.Name { return names[i] },
		DNSSECOK:  true,
		Mode:      loadgen.ModeClosed,
		Workers:   soakWindow,
		Timeout:   2 * time.Second,
		Retries:   1,
	})
	if err != nil {
		return nil, err
	}
	cfg.Log("soak: storm of %d queries (window %d, max-inflight %d) against %s", soakQueries, soakWindow, soakMaxInFlight, addr)
	rep, err := runner.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("soak load: %w", err)
	}
	res.Sent, res.Completed, res.Refused, res.Timeouts = rep.Sent, rep.Completed, rep.Refused, rep.Timeouts

	// Storm over: the scraper stops, and health must come back.
	close(stopScrape)
	scrapeWG.Wait()
	recoverStart := time.Now()
	deadline := recoverStart.Add(soakRecoverDeadline)
	for gate.HealthState() != overload.Healthy && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	res.RecoveredIn = time.Since(recoverStart)
	res.FinalHealth = gate.HealthState()

	// Drain both listeners inside the deadline — the no-deadlock invariant.
	if err := udp.Shutdown(soakDrainDeadline); err != nil {
		return nil, fmt.Errorf("udp drain: %w", err)
	}
	if err := tcp.Shutdown(soakDrainDeadline); err != nil {
		return nil, fmt.Errorf("tcp drain: %w", err)
	}

	delta := svc.Snapshot().Minus(before)
	res.Sheds = delta.Overload.Sheds()
	res.WatchdogTrips = delta.Overload.WatchdogTrips
	res.BreakerOpens = delta.Resolver.BreakerOpens
	cfg.Log("soak: %d sent, %d refused, %d timeouts, %d sheds, %d scrapes (%d failed), health %s after %v",
		res.Sent, res.Refused, res.Timeouts, res.Sheds, res.Scrapes, res.ScrapeErrors, res.FinalHealth, res.RecoveredIn.Round(time.Millisecond))
	return res, nil
}
