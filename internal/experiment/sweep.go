package experiment

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
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
	// tracking the population size once the cache cap is reached. It
	// measures work done by THIS process: a checkpoint-resumed point only
	// materializes the zones its remaining shards touch, so it is the one
	// cell of the leak table that legitimately differs from an
	// uninterrupted run.
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
	// BootMode reports how the point's infrastructure state came up
	// (live warm-up or snapshot restore); ResumedShards how many of the
	// point's shards were restored from a checkpoint instead of run.
	// Both live here — in the bracketed timing line, outside the
	// deterministic leak table — because they describe provenance, and
	// snapshot/checkpoint boots are pinned to produce identical metrics.
	BootMode      core.BootMode
	ResumedShards int
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
// Params.Scale.
func Sweep(p Params, populations []int) (*SweepResult, error) {
	return SweepWithOpts(p, populations, SweepOpts{})
}

// SweepOpts adds warm-state persistence to a sweep. All fields are
// optional; the zero value reproduces Sweep's behavior exactly.
type SweepOpts struct {
	// SnapshotLoad, when set, boots each point's infrastructure cache from
	// this warm-state snapshot instead of a live warm-up. A snapshot that
	// is missing, corrupt, or built for a different universe/configuration
	// is refused: the point logs why (via Log) and warms live — it never
	// silently serves mismatched state.
	SnapshotLoad string
	// SnapshotSave, when set, writes each point's sealed infrastructure
	// cache (plus signed-zone signature state) to this path after warm-up.
	SnapshotSave string
	// Checkpoint, when set, persists per-shard progress to this path after
	// every finished shard, and resumes from it when a matching checkpoint
	// exists: restored shards are not re-run, and the merged leak
	// accounting is identical to an uninterrupted run (only the
	// MaterializedSLDs diagnostic reflects the smaller amount of work
	// actually performed). A checkpoint for a different
	// universe, configuration, population, or shard count starts fresh.
	// The file is removed when the point completes.
	Checkpoint string
	// Log receives fallback and refusal reasons (nil discards them).
	// Callers route it to stderr so experiment stdout stays deterministic.
	Log func(format string, args ...any)
	// limits and packetCacheCap, when non-zero, replace the sweep's
	// resolver cache caps and its packet-cache cap (negative: the
	// authserver default): test seams for TestSweepCacheCaps.
	limits         resolver.CacheLimits
	packetCacheCap int
}

// pointPath derives the per-point file path: multi-point sweeps suffix the
// population size so points don't clobber each other's files.
func pointPath(base string, n int, multi bool) string {
	if base == "" || !multi {
		return base
	}
	return fmt.Sprintf("%s.pop%d", base, n)
}

// SweepWithOpts is Sweep with snapshot boot, snapshot save, and
// checkpoint/resume wired in (see SweepOpts).
func SweepWithOpts(p Params, populations []int, opts SweepOpts) (*SweepResult, error) {
	if len(populations) == 0 {
		populations = []int{
			p.scaled(10_000, 50),
			p.scaled(100_000, 100),
			p.scaled(1_000_000, 200),
		}
	}
	multi := len(populations) > 1
	res := &SweepResult{Points: make([]SweepPoint, len(populations))}
	for i := range populations {
		ptOpts := opts
		ptOpts.SnapshotLoad = pointPath(opts.SnapshotLoad, populations[i], multi)
		ptOpts.SnapshotSave = pointPath(opts.SnapshotSave, populations[i], multi)
		ptOpts.Checkpoint = pointPath(opts.Checkpoint, populations[i], multi)
		pt, err := sweepPoint(populations[i], p.Seed, p.workers(), ptOpts)
		if err != nil {
			return nil, fmt.Errorf("sweep at population=%d: %w", populations[i], err)
		}
		res.Points[i] = pt
	}
	return res, nil
}

// sweepPoint measures one population size, running up to workers shards
// concurrently.
func sweepPoint(n int, seed int64, workers int, opts SweepOpts) (SweepPoint, error) {
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
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
	ic, bootMode, err := core.LoadOrWarm(u, cfg, nil, opts.SnapshotLoad, logf)
	if err != nil {
		return SweepPoint{}, err
	}
	if opts.SnapshotSave != "" {
		if err := core.SaveWarmState(opts.SnapshotSave, u, cfg, ic); err != nil {
			return SweepPoint{}, fmt.Errorf("saving snapshot %s: %w", opts.SnapshotSave, err)
		}
	}
	warmWall := time.Since(warmStart)

	cfg.Infra = ic
	shardedOpts := core.ShardedOptions{
		Options:     core.Options{Resolver: cfg},
		Workers:     sweepShards,
		Parallelism: workers,
	}

	// Checkpoint plumbing: load a matching checkpoint (or start a fresh
	// one) and rewrite the file after every finished shard. The auditor
	// variable is captured by the OnShardDone closure before it is built;
	// QueryDomains only fires the hook once shards finish, long after
	// NewShardedAuditor assigned it.
	var auditor *core.ShardedAuditor
	var ck *core.Checkpoint
	var ckMu sync.Mutex
	resumed := 0
	if opts.Checkpoint != "" {
		uFP, cFP := u.Fingerprint(), cfg.WarmFingerprint()
		if loaded, err := core.LoadCheckpoint(opts.Checkpoint); err == nil {
			if merr := loaded.Matches(uFP, cFP, n, sweepShards); merr == nil {
				ck = loaded
				resumed = len(ck.States)
			} else {
				logf("checkpoint %s refused, starting fresh: %v", opts.Checkpoint, merr)
			}
		} else if !os.IsNotExist(err) {
			logf("checkpoint %s unreadable, starting fresh: %v", opts.Checkpoint, err)
		}
		if ck == nil {
			ck = &core.Checkpoint{
				UniverseFP: uFP, ConfigFP: cFP,
				Population: n, Shards: sweepShards,
				States: make(map[int]*core.ShardState),
			}
		}
		shardedOpts.OnShardDone = func(i int) {
			ckMu.Lock()
			defer ckMu.Unlock()
			ck.States[i] = auditor.ExportShardState(i)
			if err := core.SaveCheckpoint(opts.Checkpoint, ck); err != nil {
				logf("checkpoint %s not written: %v", opts.Checkpoint, err)
			}
		}
	}

	auditor, err = core.NewShardedAuditor(u, shardedOpts)
	if err != nil {
		return SweepPoint{}, err
	}
	if ck != nil {
		for i, st := range ck.States {
			if err := auditor.RestoreShardState(i, st); err != nil {
				return SweepPoint{}, fmt.Errorf("restoring checkpoint %s: %w", opts.Checkpoint, err)
			}
		}
	}
	workload := pop.Top(n)
	runStart := time.Now()
	if err := auditor.QueryDomains(workload); err != nil {
		return SweepPoint{}, err
	}
	rep := auditor.Report()
	runWall := time.Since(runStart)
	// The point is complete; its checkpoint has served its purpose and
	// would make a future run at the same parameters an instant no-op.
	if opts.Checkpoint != "" {
		if err := os.Remove(opts.Checkpoint); err != nil && !os.IsNotExist(err) {
			logf("checkpoint %s not removed: %v", opts.Checkpoint, err)
		}
	}

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
			BootMode:      bootMode,
			ResumedShards: resumed,
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
			"[sweep population=%d finished in %v: setup=%v warm=%v run=%v %.0f domains/sec heap=%.1fMB boot=%s resumed=%d/%d]\n",
			pt.Population, total.Round(time.Millisecond),
			pt.Timing.SetupWall.Round(time.Millisecond),
			pt.Timing.WarmWall.Round(time.Millisecond),
			pt.Timing.RunWall.Round(time.Millisecond),
			pt.Timing.DomainsPerSec, pt.Timing.HeapAllocMB,
			pt.Timing.BootMode, pt.Timing.ResumedShards, sweepShards)
	}
	b.WriteString("\n")
	return b.String()
}
