package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// serveWorkload is the shape of one serving workload. Sizes are the
// prototype's, from a 2-core box; -scale shrinks counts, never shapes.
type serveWorkload struct {
	name    string
	pop     int  // population size
	uniform bool // uniform names (cache-busting) instead of Zipf s=1.2
	// warm is the untimed warm-up: a query count for the closed loops, a
	// duration at the offered rate for the storm.
	warmQueries int
	warmFor     time.Duration
	// gate and stormRate are set on serve_storm only: the admission
	// controller it runs behind and the fixed open-loop rate in q/s.
	gate      *overload.Config
	stormRate int
}

var serveWorkloads = map[string]serveWorkload{
	"serve_hot":   {name: "serve_hot", pop: 10_000, warmQueries: 300_000},
	"serve_cold":  {name: "serve_cold", pop: 1_000_000, uniform: true, warmQueries: 10_000},
	"serve_storm": {name: "serve_storm", pop: 1_000_000, uniform: true, warmQueries: 10_000, warmFor: 2 * time.Second, gate: &stormGate, stormRate: 20_000},
}

// setupRepeats is how many times a run sets the serving stack up; setup_s is
// the median. The builder's contract asks for the repeats ("set up several
// times in a run and report the median"): one set-up of 4 s on this box
// reads anywhere within 20 % of itself.
const setupRepeats = 3

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists every correctness gate that did not hold; empty means
	// the run is correct.
	problems []string
	values   map[string]float64
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// failedShareBound is the most a workload may fail before the run itself is
// wrong: 0.5 % of attempted, the storm's expected ≈ 0.1 % included.
const failedShareBound = 0.005

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s >= 1 {
		return s
	}
	return 1
}

// generator is what the serving workloads need from either loop.
type generator interface {
	warmUp() tally
	measure(d time.Duration, spans bool) *phaseResult
	// pairs returns query/response packets captured off the sockets, if the
	// loop keeps any.
	pairs() []packetPair
	close()
}

type closedGen struct {
	*closedLoop
	warmQueries int
}

func (g closedGen) warmUp() tally { return g.warm(g.warmQueries) }

// openGen warms in two steps on its one socket: a closed-loop prime, so the
// lazy first touches (TLD indexes at a million names take over a second)
// stall a client that waits rather than a schedule that does not, then the
// storm itself.
type openGen struct {
	*openLoop
	primeQueries int
	warmFor      time.Duration
}

func (g openGen) warmUp() tally {
	t := g.prime(g.primeQueries)
	t.add(g.run(g.warmFor, false, false).tally)
	return t
}
func (g openGen) measure(d time.Duration, spans bool) *phaseResult {
	return g.run(d, true, spans)
}
func (g openGen) pairs() []packetPair { return nil }

func (w serveWorkload) generator(s *stack, cfg runConfig, epoch time.Time, capturePairs int) (generator, error) {
	if w.stormRate > 0 {
		g, err := newOpenLoop(s.udp.AddrPort(), w.stormRate, cfg.seed, s.names, epoch)
		if err != nil {
			return nil, err
		}
		warm := time.Duration(float64(w.warmFor) * cfg.scale)
		if warm < 50*time.Millisecond {
			warm = 50 * time.Millisecond
		}
		return openGen{g, scaled(w.warmQueries, cfg.scale), warm}, nil
	}
	conns := 2
	if n := runtime.NumCPU(); n < conns {
		conns = n
	}
	g, err := newClosedLoop(s.udp.AddrPort(), conns, cfg.seed, s.names, w.uniform, epoch, capturePairs)
	if err != nil {
		return nil, err
	}
	return closedGen{g, scaled(w.warmQueries, cfg.scale)}, nil
}

// gateClient checks what every serving run must hold, traced or not.
func (w serveWorkload) gateClient(o *outcome, phase string, t tally) {
	refusedOK := w.gate != nil
	if t.servfail+t.otherRCode+t.mismatched > 0 {
		o.problemf("%s: unexpected answers: %d SERVFAIL, %d other RCode, %d malformed or mismatched",
			phase, t.servfail, t.otherRCode, t.mismatched)
	}
	if !refusedOK && t.refused > 0 {
		o.problemf("%s: %d REFUSED from an ungated server", phase, t.refused)
	}
	if share := float64(t.failed(refusedOK)) / float64(t.attempted); share > failedShareBound {
		o.problemf("%s: failed share %.4f over %.4f (%d lost of %d)", phase, share, failedShareBound, t.lost, t.attempted)
	}
	if t.answered == 0 {
		o.problemf("%s: no real answers", phase)
	}
}

// setUp is everything a run does before its first measured query:
// population, universe, serve.Build with its infrastructure warm-up, the
// listeners, and the warm-up phase that fills caches and pays the lazy first
// touches. It returns how long that took.
func (w serveWorkload) setUp(o *outcome, cfg runConfig) (*stack, generator, float64, error) {
	start := time.Now()
	s, times, err := buildStack(scaled(w.pop, cfg.scale), cfg.seed, w.gate, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	gen, err := w.generator(s, cfg, time.Now(), 0)
	if err != nil {
		_ = s.close()
		return nil, nil, 0, err
	}
	warm := gen.warmUp()
	took := time.Since(start).Seconds()
	logf("setup: %.3fs (population %.3fs, universe %.3fs, serve.Build %.3fs, warm-up %.3fs: %d queries, %d answered, %d refused, %d lost)",
		took, times.population.Seconds(), times.universe.Seconds(), times.serve.Seconds(),
		took-times.total().Seconds(), warm.attempted, warm.answered, warm.refused, warm.lost)
	w.gateClient(o, "warm-up", warm)
	return s, gen, took, nil
}

// run is the untraced run: the end-to-end metrics, nothing hooked into the
// serving path. The first stack built is the one measured, in a process
// that has done nothing else, as resolved would be; peak_rss_mb is read
// before the later set-ups, which exist only to time them.
func (w serveWorkload) run(cfg runConfig) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	s, gen, took, err := w.setUp(o, cfg)
	if err != nil {
		return nil, err
	}
	setups := []float64{took}

	// Start every measured phase from a collected heap: at a million names a
	// GC cycle takes seconds, and where in the cycle the phase begins would
	// otherwise differ from run to run.
	runtime.GC()
	res := gen.measure(cfg.duration(), false)
	o.values["peak_rss_mb"] = peakRSSMB()
	gen.close()
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing the measured stack: %w", err)
	}
	w.gateClient(o, "measured", res.tally)
	logPhase("measured", res)

	for len(setups) < setupRepeats {
		s, gen = nil, nil
		runtime.GC() // a set-up should not pay for the last stack's garbage
		if s, gen, took, err = w.setUp(o, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		gen.close()
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("closing stack %d: %w", len(setups), err)
		}
	}

	o.attempted = res.tally.attempted
	o.failed = res.tally.failed(w.gate != nil)
	o.values["setup_s"] = median(setups)
	o.values["ops_per_s"] = res.rate()
	o.values["p50_us"] = us(percentile(res.lat, 0.50))
	o.values["p90_us"] = us(percentile(res.lat, 0.90))
	return o, nil
}

func logPhase(name string, r *phaseResult) {
	t := r.tally
	logf("%s: %.2fs, %d attempted, %d answered, %d refused, %d lost, %d servfail, %d mismatched, %d stale; "+
		"%.0f real answers/s; latency over n=%d samples: p50 %.1fus p90 %.1fus p99 %.1fus p99.9 %.1fus, %d not stored; sockets=%d",
		name, r.elapsed.Seconds(), t.attempted, t.answered, t.refused, t.lost, t.servfail, t.mismatched, t.stale,
		r.rate(), len(r.lat), us(percentile(r.lat, 0.5)), us(percentile(r.lat, 0.9)), us(percentile(r.lat, 0.99)), us(percentile(r.lat, 0.999)),
		r.dropped, r.sockets)
}

// roleCounts is the network tap of the traced run: exchanges by the role of
// the server that answered.
type roleCounts struct {
	total, root, tld, sld, dlv atomic.Int64
}

func (c *roleCounts) tap(ev simnet.Event) {
	c.total.Add(1)
	switch ev.DstRole {
	case simnet.RoleRoot:
		c.root.Add(1)
	case simnet.RoleTLD:
		c.tld.Add(1)
	case simnet.RoleSLD:
		c.sld.Add(1)
	case simnet.RoleDLV:
		c.dlv.Add(1)
	}
}

// request is one traced query: the client span and its serve.handle child.
// The transport's self time is the parent minus the child.
type request struct {
	ID              uint16 `json:"id"`
	ClientStart     int64  `json:"client_start_ns"`
	ClientEnd       int64  `json:"client_end_ns"`
	HandleStart     int64  `json:"serve_handle_start_ns"`
	HandleEnd       int64  `json:"serve_handle_end_ns"`
	TransportSelfNs int64  `json:"udptransport_self_ns"`
}

// matchSpans pairs each client span with the serve.handle span of the same
// ID that lies inside it.
func matchSpans(client []clientSpan, server []serverSpan) []request {
	sort.Slice(server, func(i, j int) bool { return server[i].start < server[j].start })
	sort.Slice(client, func(i, j int) bool { return client[i].start < client[j].start })
	byID := make(map[uint16][]int32)
	for i, sp := range server {
		byID[sp.id] = append(byID[sp.id], int32(i))
	}
	out := make([]request, 0, len(client))
	for _, c := range client {
		list := byID[c.id]
		// Spans of this ID that started before the client span belong to
		// queries the client gave up on, or to the untraced phase.
		for len(list) > 0 && server[list[0]].start < c.start {
			list = list[1:]
		}
		if len(list) > 0 && server[list[0]].end <= c.end {
			sp := server[list[0]]
			list = list[1:]
			out = append(out, request{
				ID: c.id, ClientStart: c.start, ClientEnd: c.end, HandleStart: sp.start, HandleEnd: sp.end,
				TransportSelfNs: (c.end - c.start) - (sp.end - sp.start),
			})
		}
		byID[c.id] = list
	}
	return out
}

// trace is the traced run: the same workload with the wrapping handler, the
// client spans, the network tap and Snapshot deltas, then the layer probes.
// Its first part runs with recording off, so the run can state what the
// tracing itself cost.
func (w serveWorkload) trace(cfg runConfig, sp *spec) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	v := o.values
	popSize := scaled(w.pop, cfg.scale)
	epoch := time.Now()

	// Recording-off reference before and after the traced phase, a fifth of
	// the time each, so that a cache still warming or a box drifting slower
	// does not read as tracing overhead.
	reference := cfg.duration() / 5
	traced := cfg.duration() - 2*reference
	spanCap := int(traced.Seconds()*2*maxRatePerConn) + 1

	var handler *spanHandler
	s, times, err := buildStack(popSize, cfg.seed, w.gate, func(next simnet.Handler) simnet.Handler {
		handler = newSpanHandler(next, epoch, spanCap)
		return handler
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = s.close()
		}
	}()
	logf("setup: %.3fs (population %.3fs, universe %.3fs, serve.Build %.3fs)",
		times.total().Seconds(), times.population.Seconds(), times.universe.Seconds(), times.serve.Seconds())

	gen, err := w.generator(s, cfg, epoch, 128)
	if err != nil {
		return nil, err
	}
	defer gen.close()
	w.gateClient(o, "warm-up", gen.warmUp())

	refBefore := gen.measure(reference, false)
	w.gateClient(o, "reference", refBefore.tally)
	logPhase("reference before (recording off)", refBefore)

	var roles roleCounts
	s.u.Net.AddTap(roles.tap)
	before := s.svc.Snapshot()
	rtBefore := readRuntime()
	handler.on.Store(true)
	res := gen.measure(traced, true)
	handler.on.Store(false)
	rtAfter := readRuntime()
	delta := s.svc.Snapshot().Minus(before)
	s.u.Net.ResetTaps()
	w.gateClient(o, "traced", res.tally)
	logPhase("traced", res)
	refAfter := gen.measure(reference, false)
	w.gateClient(o, "reference", refAfter.tally)
	logPhase("reference after (recording off)", refAfter)
	o.attempted = res.tally.attempted
	o.failed = res.tally.failed(w.gate != nil)
	v["universe.cached_sld_zones"] = float64(s.u.CachedSLDZones())

	// Drain the listeners before reading the handler's spans.
	closed = true
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("draining listeners: %w", err)
	}
	requests := matchSpans(res.spans, handler.recorded())
	if len(requests) < len(res.spans)*9/10 {
		o.problemf("traced: only %d of %d client spans found their serve.handle span", len(requests), len(res.spans))
	}

	// client.* and gen.*: context for every serving metric.
	t := res.tally
	refusedOK := w.gate != nil
	v["client.rtt_p50_us"] = us(percentile(res.lat, 0.50))
	v["client.p99_us"] = us(percentile(res.lat, 0.99))
	v["client.p999_us"] = us(percentile(res.lat, 0.999))
	v["client.failed_share"] = float64(t.failed(refusedOK)) / float64(t.attempted)
	v["gen.max_lateness_ms"] = res.lateness.Seconds() * 1e3
	v["gen.inflight_max"] = float64(res.inflight)
	if w.stormRate == 0 {
		v["gen.inflight_max"] = float64(res.sockets) // closed loop: one per socket
	}
	v["gen.sockets"] = float64(res.sockets)

	// serve.* and udptransport.self: the two halves of each request.
	handle := make([]int64, len(requests))
	self := make([]int64, len(requests))
	for i, r := range requests {
		handle[i] = r.HandleEnd - r.HandleStart
		self[i] = r.TransportSelfNs
	}
	slices.Sort(handle)
	slices.Sort(self)
	v["serve.handle_p50_us"] = us(percentile(handle, 0.50))
	v["serve.handle_p99_us"] = us(percentile(handle, 0.99))
	v["udptransport.self_p50_us"] = us(percentile(self, 0.50))
	v["udptransport.truncated"] = float64(delta.UDP.Truncated)
	v["udptransport.malformed"] = float64(delta.UDP.Malformed)

	// overload.*: all zero when the workload runs ungated.
	ov := delta.Overload
	offered := float64(ov.Admitted + ov.Sheds())
	v["overload.shed_share"] = 0
	if offered > 0 {
		v["overload.shed_share"] = float64(ov.Sheds()) / offered
	}
	v["overload.shed_window"] = float64(ov.ShedWindow)
	v["overload.shed_queue"] = float64(ov.ShedQueue)
	v["overload.queue_p99_ms"] = float64(ov.QueueDelayP99us) / 1e3

	// resolver.*, simnet.*, authserver.*: Snapshot deltas and tap counts
	// over the traced phase, per resolution.
	resolutions := float64(delta.Resolver.Resolutions)
	per := func(n float64) float64 {
		if resolutions == 0 {
			return 0
		}
		return n / resolutions
	}
	v["resolver.answer_cache_hit_ratio"] = delta.AnswerCacheHitRate()
	v["resolver.infra_hit_ratio"] = delta.InfraHitRate()
	v["resolver.dlv_queries_per_query"] = per(float64(delta.Resolver.DLVQueries))
	v["resolver.dlv_suppressed_per_query"] = per(float64(delta.Resolver.DLVSuppressed))
	v["simnet.exchanges_per_query"] = per(float64(roles.total.Load()))
	v["simnet.exchanges_per_query.root"] = per(float64(roles.root.Load()))
	v["simnet.exchanges_per_query.tld"] = per(float64(roles.tld.Load()))
	v["simnet.exchanges_per_query.sld"] = per(float64(roles.sld.Load()))
	v["simnet.exchanges_per_query.dlv"] = per(float64(roles.dlv.Load()))
	v["authserver.pktcache_hit_ratio"] = delta.PacketCacheHitRate()

	runtimeDelta(rtBefore, rtAfter, t.attempted, v)

	ref := (refBefore.rate() + refAfter.rate()) / 2
	v["trace.overhead_pct"] = 100 * (ref - res.rate()) / ref

	probes, err := runProbes(cfg, gen.pairs())
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, val := range probes {
		v[name] = val
	}

	// The ledger: do the layers add up to what the client saw?
	rtt := v["client.rtt_p50_us"]
	v["ledger.gap_pct"] = 100 * math.Abs(rtt-(v["udptransport.self_p50_us"]+v["serve.handle_p50_us"])) / rtt
	v["ledger.hot_gap_pct"] = 0
	if w.name == "serve_hot" {
		v["ledger.hot_gap_pct"] = 100 * math.Abs(rtt-(v["udptransport.floor_rtt_us"]+v["resolver.resolve_hit_us"])) / rtt
	}
	for _, name := range []string{"ledger.gap_pct", "ledger.hot_gap_pct"} {
		if v[name] > ledgerTolerancePct {
			logf("WARNING: %s = %.1f%% is over the %d%% tolerance: the layers do not add up to the client's median", name, v[name], ledgerTolerancePct)
		}
	}
	fillNotApplicable(v, sp.PerLayer, "sweep.")

	return o, writeTrace(cfg, w.name, v, requests)
}

// ledgerTolerancePct is how far the layer medians may sit from the client's
// median before the run warns. A warning, not a failure: medians of parts
// need not add up to the median of the whole.
const ledgerTolerancePct = 25
