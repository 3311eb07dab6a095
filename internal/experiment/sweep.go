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

// Per-shard resolver cache caps during a sweep, sized by what one domain
// needs. A sweep asks each domain once, so nothing one domain puts in its
// shard's private cache is asked for by the next: what domains share — the
// root and TLD cuts with their validation outcomes, the registry's path and
// keys — each shard reads from the sealed infrastructure cache
// (Config.Infra), and what spans domains, the registry's NSEC spans, lives
// in the span store, which is not capped here (bounding it changes
// DLVQueries, not just memory). The private cache only has to hold the
// domain in flight. Eviction is by recency, a generation being half a cap
// (an entry goes only after that many inserts without a touch), so the
// rule is: a generation holds 128 times the most entries any one domain
// adds, rounded up to a power of two. Over the 100k population at seed 1
// (TestSweepWorkingSet measures it, 8 shards, caches too large to evict)
// one domain adds at most 4 positive answers, 4 negative answers and 1
// zone record, so each answer table's generation is 512 entries and the
// zone table's 128. The warm-up's resolvers run under the same caps, and
// the 28 zone records they export at 100k fit one generation. The previous
// caps, 1<<15 / 1<<14, held every domain of a 100k shard for nothing
// (sweep_100k's peak RSS was 213 MB, now 110 MB with the bounded intern
// table); TestSweepCacheCaps pins that both read alike, as does 256 / 128.
const (
	sweepAnswerCap = 1 << 10
	sweepZoneCap   = 1 << 8
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

	cfg := sweepConfig(u, opts.limits)
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

// sweepConfig is the resolver configuration of every shard of a sweep
// point: validation and look-aside on, no NS completion or PTR sampling,
// and the given cache caps, the sweep's own when zero.
func sweepConfig(u *universe.Universe, limits resolver.CacheLimits) resolver.Config {
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Limits = limits
	if cfg.Limits == (resolver.CacheLimits{}) {
		cfg.Limits = resolver.CacheLimits{Answers: sweepAnswerCap, Zones: sweepZoneCap}
	}
	return cfg
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
