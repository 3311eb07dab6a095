package experiment

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/loadgen"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// E18's fixed shape.
const (
	// overloadWorkers is the resolver instance count per rig.
	overloadWorkers = 2
	// overloadSeconds is the offered-load duration of each point.
	overloadSeconds = 1
	// overloadTimeout is the load generator's per-query deadline for the
	// storm points: scaled stub patience. Real stubs wait a few seconds
	// against ~10ms resolutions (a few hundred times the service time);
	// cold resolution here costs tens of microseconds, so 25ms keeps the
	// same ratio. Patience far above the saturated queueing delay would
	// let clients absorb any backlog and no storm could form.
	overloadTimeout = 25 * time.Millisecond
)

// overloadOpts is E18's load shape; zero fields select the defaults below.
// Only TestOverloadSmoke sets a field, to run a miniature E18.
type overloadOpts struct {
	// clients is the simulated stub-client count (0: 200).
	clients int
	// capacityQueries sizes the closed-loop capacity probe (0: scaled
	// 300k, floor 3000).
	capacityQueries int
	// multiples are the offered-load points as multiples of the measured
	// capacity (nil: 0.5, 1, 2).
	multiples []float64
	// maxInFlight and queueTarget configure the shed-on rig's admission
	// controller (0: 64 and 5ms).
	maxInFlight int
	queueTarget time.Duration
	// window is the load generator's in-flight bound for the storm points
	// (0: 2048). It must exceed maxInFlight — and the kernel's UDP
	// receive buffer — or the generator self-throttles and never
	// overloads the server.
	window int
	// minCapacity floors the capacity the multiples scale (0: none). The
	// probe reads capacity in wall time, so a probe starved of CPU reads
	// it low (33 q/s has been seen) and its "2x" point overloads nothing.
	minCapacity float64
}

func (o overloadOpts) withDefaults(p Params) overloadOpts {
	if o.clients <= 0 {
		o.clients = 200
	}
	if o.capacityQueries <= 0 {
		o.capacityQueries = p.scaled(300_000, 3_000)
	}
	if len(o.multiples) == 0 {
		o.multiples = []float64{0.5, 1, 2}
	}
	if o.maxInFlight <= 0 {
		o.maxInFlight = 64
	}
	if o.queueTarget <= 0 {
		o.queueTarget = 5 * time.Millisecond
	}
	if o.window <= 0 {
		o.window = 2048
	}
	return o
}

// OverloadRow is one (offered load, shedding on/off) measurement.
type OverloadRow struct {
	Multiple float64
	Offered  int // q/s
	Shedding bool
	// Client-side outcomes for the point.
	Sent, Refused, Timeouts int64
	GoodputQPS              float64
	P50, P99                time.Duration
	MaxLateness             time.Duration
	Wall                    time.Duration
	// Server-side overload delta and final health for the point.
	ServerSheds uint64
	Health      overload.Health
}

// OverloadResult carries experiment E18: goodput and tail latency versus
// offered load, with and without the admission controller. The headline is
// GoodputRetention: past the capacity ceiling the shedding rig keeps
// serving at its plateau while the unprotected rig collapses — its p99
// multiplies, timed-out queries burn server work without counting as
// goodput, and the storm's wall clock stretches as the tier falls behind.
type OverloadResult struct {
	PopSize int
	Workers int
	// Shards is the UDP listener shard count each rig actually bound
	// (after any platform fallback).
	Shards      int
	CapacityQPS float64
	Rows        []OverloadRow
}

// rowAt finds the measurement for (multiple, shedding); nil if absent.
func (r *OverloadResult) rowAt(multiple float64, shedding bool) *OverloadRow {
	for i := range r.Rows {
		if r.Rows[i].Multiple == multiple && r.Rows[i].Shedding == shedding {
			return &r.Rows[i]
		}
	}
	return nil
}

// maxMultiple returns the largest measured load multiple.
func (r *OverloadResult) maxMultiple() float64 {
	m := 0.0
	for _, row := range r.Rows {
		if row.Multiple > m {
			m = row.Multiple
		}
	}
	return m
}

// plateau returns the rig's best goodput across all offered loads. The
// closed-loop capacity probe understates the true ceiling (the probe's
// clients wait for answers; the open-loop storm does not), so the plateau
// is measured from the storm points themselves rather than taken from
// CapacityQPS.
func (r *OverloadResult) plateau(shedding bool) float64 {
	best := 0.0
	for _, row := range r.Rows {
		if row.Shedding == shedding && row.GoodputQPS > best {
			best = row.GoodputQPS
		}
	}
	return best
}

// retentionAt is goodput at the highest overload multiple over the rig's
// own plateau. Flat goodput past the ceiling is a retention near 1.0; a
// rig that serves less as more is offered shows the congestion-collapse
// signature.
func (r *OverloadResult) retentionAt(shedding bool) float64 {
	over := r.rowAt(r.maxMultiple(), shedding)
	plateau := r.plateau(shedding)
	if over == nil || plateau == 0 {
		return 0
	}
	return over.GoodputQPS / plateau
}

// GoodputRetention is the headline ratio for the shedding rig.
func (r *OverloadResult) GoodputRetention() float64 { return r.retentionAt(true) }

// CollapseRatio is the same ratio for the unprotected rig.
func (r *OverloadResult) CollapseRatio() float64 { return r.retentionAt(false) }

// overloadRig is one live serving stack: a service and its UDP listener,
// with or without the admission controller.
type overloadRig struct {
	svc  *serve.Service
	srv  *udptransport.Server
	gate *overload.Controller
}

func (r *overloadRig) close() {
	_ = r.srv.Close()
	r.svc.Close()
}

// buildOverloadRig boots a serving stack on a loopback port. The two rigs
// share one universe — each serve.Build call gets private shards — so the
// populations and zone signatures are identical. Each rig binds
// min(GOMAXPROCS, 8) UDP listener shards; on platforms without
// SO_REUSEPORT both fall back to one socket, so the shed-on/off comparison
// stays fair either way.
func buildOverloadRig(u *universe.Universe, o overloadOpts, shed bool) (*overloadRig, error) {
	var gate *overload.Controller
	if shed {
		gate = overload.New(overload.Config{
			MaxInFlight: o.maxInFlight,
			Exec:        overloadWorkers,
			QueueTarget: o.queueTarget,
		})
	}
	svc, err := serve.Build(u, u.ResolverConfig(true, true), serve.Options{
		Workers: overloadWorkers, SharedInfra: true, Overload: gate,
	})
	if err != nil {
		return nil, err
	}
	srv, err := udptransport.ListenShards("127.0.0.1:0", svc, min(runtime.GOMAXPROCS(0), 8))
	if err != nil {
		svc.Close()
		return nil, err
	}
	if gate != nil {
		srv.SetGate(gate)
	} else {
		srv.SetWorkers(overloadWorkers)
	}
	svc.AttachTransports(srv, nil)
	go func() { _ = srv.Serve() }()
	return &overloadRig{svc: svc, srv: srv, gate: gate}, nil
}

// replay runs one load-generator pass against the rig and returns the
// client report next to the rig's server-side overload delta.
func (r *overloadRig) replay(cfg loadgen.Config) (*loadgen.Report, overload.Stats, error) {
	before := r.svc.Snapshot()
	runner, err := loadgen.New(cfg)
	if err != nil {
		return nil, overload.Stats{}, err
	}
	rep, err := runner.Run(context.Background())
	if err != nil {
		return nil, overload.Stats{}, err
	}
	delta := r.svc.Snapshot().Minus(before)
	return rep, delta.Overload, nil
}

// Overload runs experiment E18: measure the serving tier's capacity under
// a cache-busting flood, then offer multiples of it to two
// otherwise-identical rigs — one unprotected, one behind the admission
// controller — and compare goodput and tail latency. Overload is offered
// over real UDP sockets, so the numbers are wall-clock measurements, not
// simulations. The storm samples names uniformly: Zipf replay mostly hits
// the answer cache, and a cacheable workload cannot overload the tier —
// uniform floods are the shape real resolver storms take.
func Overload(p Params) (*OverloadResult, error) {
	return overloadWith(p, overloadOpts{})
}

// overloadWith is Overload with its load shape replaced where opts is
// non-zero.
func overloadWith(p Params, opts overloadOpts) (*OverloadResult, error) {
	o := opts.withDefaults(p)
	// The population floor is deliberately high: the storm samples
	// uniformly (cache-busting), and the population must dwarf the total
	// query budget or the flood warms the whole cache mid-run and stops
	// being an overload.
	popSize := p.scaled(200_000, 100_000)
	pop, err := buildPopulation(popSize, p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	names := make([]dns.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}
	baseCfg := func(rig *overloadRig) loadgen.Config {
		return loadgen.Config{
			Server:   rig.srv.AddrPort(),
			Names:    func(i int) dns.Name { return names[i] },
			DNSSECOK: true,
			Workers:  o.window,
			Timeout:  overloadTimeout,
			Retries:  0,
		}
	}

	rigs := map[bool]*overloadRig{}
	for _, shed := range []bool{false, true} {
		rig, err := buildOverloadRig(u, o, shed)
		if err != nil {
			return nil, fmt.Errorf("overload rig (shed=%t): %w", shed, err)
		}
		defer rig.close()
		rigs[shed] = rig

		// Warm pass: a small closed-loop Zipf replay warms the head of
		// the population on both rigs, settling allocator and
		// shared-infra state. The storm itself samples uniformly, so the
		// bulk of the population stays cold — by design.
		warm := 2_000
		cfg := baseCfg(rig)
		cfg.Mode = loadgen.ModeClosed
		cfg.Workers = 32
		cfg.Schedule = loadgen.ScheduleConfig{
			Clients: o.clients, PopSize: len(names), Seed: p.Seed,
			MaxQueries: int64(warm),
		}
		cfg.PerMinute = []int{warm}
		if _, _, err := rig.replay(cfg); err != nil {
			return nil, fmt.Errorf("warm pass (shed=%t): %w", shed, err)
		}
	}

	// Capacity probe: closed-loop max throughput on the unprotected rig.
	// The probe window is moderate on purpose: enough concurrency to
	// saturate the execution slots, small enough to stay inside the
	// kernel's UDP receive buffer — drops during the probe would
	// understate the ceiling the storm points are multiples of.
	cfg := baseCfg(rigs[false])
	cfg.Mode = loadgen.ModeClosed
	cfg.Workers = 256
	if cfg.Workers > o.window {
		cfg.Workers = o.window
	}
	cfg.Schedule = loadgen.ScheduleConfig{
		Clients: o.clients, PopSize: len(names), Seed: p.Seed + 1,
		MaxQueries: int64(o.capacityQueries), Uniform: true,
	}
	cfg.PerMinute = []int{o.capacityQueries}
	probe, _, err := rigs[false].replay(cfg)
	if err != nil {
		return nil, fmt.Errorf("capacity probe: %w", err)
	}
	capacity := probe.QPS
	if capacity <= 0 {
		return nil, fmt.Errorf("capacity probe measured no throughput")
	}

	res := &OverloadResult{
		PopSize: popSize, Workers: overloadWorkers,
		Shards: rigs[true].srv.Shards(), CapacityQPS: capacity,
	}
	for pi, mult := range o.multiples {
		offered := int(mult * max(capacity, o.minCapacity))
		if offered < 1 {
			offered = 1
		}
		for _, shed := range []bool{false, true} {
			rig := rigs[shed]
			// An open-loop storm: each "trace minute" carries one second of
			// offered load and replays at compress 60, so the generator
			// holds the offered rate regardless of how the server fares.
			perMin := make([]int, overloadSeconds)
			for i := range perMin {
				perMin[i] = offered
			}
			// Per-point schedule seeds keep later points drawing fresh
			// tail names; the same seed across the two rigs keeps the
			// on/off comparison at each point fair.
			cfg := baseCfg(rig)
			cfg.Mode = loadgen.ModeOpen
			cfg.Compress = 60
			cfg.Schedule = loadgen.ScheduleConfig{
				Clients: o.clients, PopSize: len(names), Seed: p.Seed + 2 + int64(pi),
				MaxQueries: int64(offered * overloadSeconds), Uniform: true,
			}
			cfg.PerMinute = perMin
			rep, ovl, err := rig.replay(cfg)
			if err != nil {
				return nil, fmt.Errorf("point %.1fx (shed=%t): %w", mult, shed, err)
			}
			res.Rows = append(res.Rows, OverloadRow{
				Multiple:    mult,
				Offered:     offered,
				Shedding:    shed,
				Sent:        rep.Sent,
				Refused:     rep.Refused,
				Timeouts:    rep.Timeouts,
				GoodputQPS:  rep.GoodputQPS,
				P50:         rep.Latency.Quantile(0.50),
				P99:         rep.Latency.Quantile(0.99),
				MaxLateness: rep.MaxLateness,
				Wall:        rep.Wall,
				ServerSheds: ovl.Sheds(),
				Health:      overload.Health(ovl.Health),
			})
		}
	}
	return res, nil
}

// String renders the E18 table.
func (r *OverloadResult) String() string {
	var b strings.Builder
	t := metrics.Table{
		Title: fmt.Sprintf("E18 — goodput under overload (%d domains, %d workers, %d udp shards, capacity %.0f q/s)",
			r.PopSize, r.Workers, r.Shards, r.CapacityQPS),
		Header: []string{"offered", "shedding", "goodput", "refused", "timeouts",
			"p50", "p99", "lateness", "wall", "srv sheds", "health"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%.1fx (%d q/s)", row.Multiple, row.Offered),
			onOff(row.Shedding),
			fmt.Sprintf("%.0f q/s", row.GoodputQPS),
			row.Refused, row.Timeouts,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond),
			row.MaxLateness.Round(time.Millisecond),
			row.Wall.Round(time.Millisecond),
			row.ServerSheds, row.Health.String(),
		)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "goodput retention at %.1fx offered: shedding %.0f%% of plateau, unprotected %.0f%%\n",
		r.maxMultiple(), 100*r.GoodputRetention(), 100*r.CollapseRatio())
	if on, off := r.rowAt(r.maxMultiple(), true), r.rowAt(r.maxMultiple(), false); on != nil && off != nil {
		fmt.Fprintf(&b, "at the top point: shedding answers in p99 %v and finishes in %v; unprotected p99 %v, %d timeouts, wall %v\n",
			on.P99.Round(time.Millisecond), on.Wall.Round(10*time.Millisecond),
			off.P99.Round(time.Millisecond), off.Timeouts, off.Wall.Round(10*time.Millisecond))
	}
	return b.String()
}
