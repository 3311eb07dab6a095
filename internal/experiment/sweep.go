package experiment

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// sweepShards is the FIXED shard count of every sweep point's
// ShardedAuditor. Params.Workers bounds how many of those shards execute
// concurrently (ShardedOptions.Parallelism) — it never changes the shard
// count, the workload partition, or any per-shard clock domain — so the
// per-point metrics are a function of (population, seed) alone, identical
// at any -workers value. TestSweepInvariance pins this.
const sweepShards = 8

// Per-worker resolver cache caps during a sweep. Sweep workloads query
// every domain exactly once, so per-domain cache entries (answers, SLD
// zone records) are never re-used across domains; the
// shared infrastructure cache carries everything that is. Each cap sits
// far above one domain's working set plus the whole infrastructure set,
// and eviction is by recency (an entry goes only after half a cap of
// inserts without a touch), so it only ever discards entries belonging to
// finished domains and resolution behavior — hence every metric — is
// unchanged (TestSweepCacheCaps runs the 10k point under far tighter
// caps). The NSEC span store is deliberately NOT capped here: aggressive negative caching
// accumulates spans across domains (the DLVSuppressed metric), so bounding
// it would change results, not just memory.
const (
	sweepAnswerCap = 1 << 15
	sweepZoneCap   = 1 << 14
)

// sweepPacketCacheCap bounds every authoritative server's wire-response
// cache during a sweep. Each cache entry is a full encoded response plus
// its decoded message (~1 KB) keyed by qname, and a sweep queries each
// domain exactly once — at the million-domain point the default cap lets
// the hosting pools accrete gigabytes of never-re-served responses. The
// cap only bounds memory: a cold cache rebuilds the identical response, so
// metrics are unchanged at any value (TestSweepInvariance).
const sweepPacketCacheCap = 64

// SweepMetrics are the deterministic outputs of one sweep point: identical
// for a given (population size, seed) regardless of Params.Workers, wall
// clock, or host load.
type SweepMetrics struct {
	// DLVQueries, LeakedDomains (Case-2), Case1Domains, and Suppressed are
	// the paper's leak accounting at this population size.
	DLVQueries    int
	LeakedDomains int
	Case1Domains  int
	Suppressed    int
	// SecureAnswers and Servfails summarize stub-visible outcomes.
	SecureAnswers int
	Servfails     int
	// SimElapsed is the slowest shard's simulated time; LatencyP50/P95 are
	// pooled per-query percentiles.
	SimElapsed             time.Duration
	LatencyP50, LatencyP95 time.Duration
	// MaterializedSLDs is how many SLD zones the lazy universe held at the
	// end of the run — bounded by its internal zone cache, so it stops
	// tracking the population size once the cache cap is reached.
	MaterializedSLDs int
}

// SweepTiming is the wall-clock side of a sweep point. Unlike
// SweepMetrics it varies run to run; it is reported, never asserted on.
type SweepTiming struct {
	// SetupWall is population generation plus lazy universe construction;
	// WarmWall is the shared-infrastructure warm-up; RunWall is the audit.
	SetupWall, WarmWall, RunWall time.Duration
	// DomainsPerSec is workload size over RunWall.
	DomainsPerSec float64
	// HeapAllocMB is the live heap after the run (runtime.ReadMemStats),
	// a coarse peak-footprint proxy.
	HeapAllocMB float64
}

// SweepPoint is one population size of the sweep.
type SweepPoint struct {
	// Population is the generated population size; Workload is how many
	// domains were queried (the full population).
	Population int
	Workload   int
	Metrics    SweepMetrics
	Timing     SweepTiming
}

// SweepResult carries the sweep points in ascending population order.
type SweepResult struct {
	Points []SweepPoint
}

// Sweep runs the million-domain sweep (DESIGN.md §9): for each population
// size it generates a fresh Alexa-like population, builds a lazy universe
// over it, warms the shared infrastructure cache once, and audits the full
// population on a fixed-width ShardedAuditor. Points run sequentially —
// each holds a full universe plus per-shard caches, so overlapping them
// multiplies peak heap — and Params.Workers instead parallelizes *inside*
// a point, spreading the fixed shards across cores. An empty populations
// slice uses the paper-scale ladder 10k / 100k / 1M divided by
// Params.Scale. Nothing is read from or written to disk.
func Sweep(p Params, populations []int) (*SweepResult, error) {
	if len(populations) == 0 {
		populations = []int{
			p.scaled(10_000, 50),
			p.scaled(100_000, 100),
			p.scaled(1_000_000, 200),
		}
	}
	res := &SweepResult{Points: make([]SweepPoint, len(populations))}
	for i, n := range populations {
		pt, err := sweepPoint(n, p.Seed, p.workers(), sweepOpts{})
		if err != nil {
			return nil, fmt.Errorf("sweep at population=%d: %w", n, err)
		}
		res.Points[i] = pt
	}
	return res, nil
}

// sweepOpts, when non-zero, replace the sweep's resolver cache caps and its
// packet-cache cap (negative: the authserver default): test seams for
// TestSweepCacheCaps.
type sweepOpts struct {
	limits         resolver.CacheLimits
	packetCacheCap int
}

// sweepPoint measures one population size, running up to workers shards
// concurrently.
func sweepPoint(n int, seed int64, workers int, opts sweepOpts) (SweepPoint, error) {
	setupStart := time.Now()
	pop, err := buildPopulation(n, seed)
	if err != nil {
		return SweepPoint{}, err
	}
	u, err := buildUniverse(pop, seed, func(o *universe.Options) {
		o.PacketCacheCap = cmp.Or(opts.packetCacheCap, sweepPacketCacheCap)
	})
	if err != nil {
		return SweepPoint{}, err
	}
	setupWall := time.Since(setupStart)

	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Limits = opts.limits
	if cfg.Limits == (resolver.CacheLimits{}) {
		cfg.Limits = resolver.CacheLimits{Answers: sweepAnswerCap, Zones: sweepZoneCap}
	}

	warmStart := time.Now()
	cfg.Infra, err = core.WarmInfra(u, cfg)
	if err != nil {
		return SweepPoint{}, err
	}
	warmWall := time.Since(warmStart)

	auditor, err := core.NewShardedAuditor(u, core.ShardedOptions{
		Options:     core.Options{Resolver: cfg},
		Workers:     sweepShards,
		Parallelism: workers,
	})
	if err != nil {
		return SweepPoint{}, err
	}
	workload := pop.Top(n)
	runStart := time.Now()
	if err := auditor.QueryDomains(workload); err != nil {
		return SweepPoint{}, err
	}
	rep := auditor.Report()
	runWall := time.Since(runStart)

	// Collect before reading so HeapAllocMB is the live heap the point
	// actually retains, not whatever garbage the last GC cycle left behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	perSec := 0.0
	if s := runWall.Seconds(); s > 0 {
		perSec = float64(len(workload)) / s
	}
	return SweepPoint{
		Population: n,
		Workload:   len(workload),
		Metrics: SweepMetrics{
			DLVQueries:       rep.Capture.DLVQueries,
			LeakedDomains:    rep.Capture.Case2Domains,
			Case1Domains:     rep.Capture.Case1Domains,
			Suppressed:       rep.ResolverStats.DLVSuppressed,
			SecureAnswers:    rep.SecureAnswers,
			Servfails:        rep.Servfails,
			SimElapsed:       rep.Elapsed,
			LatencyP50:       rep.LatencyP50,
			LatencyP95:       rep.LatencyP95,
			MaterializedSLDs: u.CachedSLDZones(),
		},
		Timing: SweepTiming{
			SetupWall:     setupWall,
			WarmWall:      warmWall,
			RunWall:       runWall,
			DomainsPerSec: perSec,
			HeapAllocMB:   float64(ms.HeapAlloc) / (1 << 20),
		},
	}, nil
}

// String renders the deterministic leak table, then one bracketed
// timing line per point. The brackets matter: every experiment's output
// is byte-identical across -workers values except for lines matching
// "finished in", and wall-clock sweep timings are exactly such lines.
func (r *SweepResult) String() string {
	leak := metrics.Table{
		Title: "Million-domain sweep — leak accounting vs. population",
		Header: []string{"population", "dlv queries", "leaked", "case-1",
			"suppressed", "servfails", "slds built", "sim p50", "sim p95"},
	}
	for _, pt := range r.Points {
		leak.AddRow(pt.Population, pt.Metrics.DLVQueries, pt.Metrics.LeakedDomains,
			pt.Metrics.Case1Domains, pt.Metrics.Suppressed, pt.Metrics.Servfails,
			pt.Metrics.MaterializedSLDs, pt.Metrics.LatencyP50, pt.Metrics.LatencyP95)
	}
	var b strings.Builder
	b.WriteString(leak.String())
	for _, pt := range r.Points {
		total := pt.Timing.SetupWall + pt.Timing.WarmWall + pt.Timing.RunWall
		fmt.Fprintf(&b,
			"[sweep population=%d finished in %v: setup=%v warm=%v run=%v %.0f domains/sec heap=%.1fMB]\n",
			pt.Population, total.Round(time.Millisecond),
			pt.Timing.SetupWall.Round(time.Millisecond),
			pt.Timing.WarmWall.Round(time.Millisecond),
			pt.Timing.RunWall.Round(time.Millisecond),
			pt.Timing.DomainsPerSec, pt.Timing.HeapAllocMB)
	}
	b.WriteString("\n")
	return b.String()
}
