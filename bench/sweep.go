package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/experiment"
)

// sweep_100k has no sockets: it is `dlvmeasure -exp sweep -population
// 100000`, the paper's product, called through experiment.Sweep. Every
// repetition builds its own population and universe, warms the shared
// infrastructure cache and audits all 100k domains on the fixed 8 shards.
const (
	sweepPopulation = 100_000
	sweepWorkers    = 2
	// sweepMinReps repetitions always run; more follow while the measured
	// time is under --seconds. Rate metrics are the median repetition.
	sweepMinReps = 3
)

// leakRow is the deterministic half of a sweep point, the paper's leak
// accounting. No performance change may move it.
type leakRow struct {
	dlvQueries, leaked, case1, suppressed, servfails int
}

func (r leakRow) String() string {
	return fmt.Sprintf("dlv queries %d / leaked %d / case-1 %d / suppressed %d / servfails %d",
		r.dlvQueries, r.leaked, r.case1, r.suppressed, r.servfails)
}

// pinnedLeakRow is the row the full-size sweep must reproduce at seed 1.
var pinnedLeakRow = leakRow{dlvQueries: 21845, leaked: 20074, case1: 1055, suppressed: 274020, servfails: 0}

func sweepOnce(cfg runConfig) (experiment.SweepPoint, leakRow, error) {
	res, err := experiment.Sweep(
		experiment.Params{Seed: cfg.seed, Workers: sweepWorkers},
		[]int{scaled(sweepPopulation, cfg.scale)})
	if err != nil {
		return experiment.SweepPoint{}, leakRow{}, err
	}
	pt := res.Points[0]
	m := pt.Metrics
	return pt, leakRow{m.DLVQueries, m.LeakedDomains, m.Case1Domains, m.Suppressed, m.Servfails}, nil
}

// gateLeakRow holds the sweep to its contract: the pinned row at seed 1, no
// SERVFAILs at any seed.
func gateLeakRow(o *outcome, cfg runConfig, row leakRow) {
	logf("leak row (seed %d, population %d): %s", cfg.seed, scaled(sweepPopulation, cfg.scale), row)
	if cfg.seed == 1 && cfg.scale == 1 && row != pinnedLeakRow {
		o.problemf("leak row moved: got %q, pinned %q", row, pinnedLeakRow)
	}
	if row.servfails != 0 {
		o.problemf("%d SERVFAILs on a fault-free sweep", row.servfails)
	}
}

const (
	// sweepWindow is how often runSweep samples the process-wide count of
	// authoritative lookups while a repetition runs.
	sweepWindow = 100 * time.Millisecond
	// sweepColdWindows is how many leading windows of a repetition are kept
	// out of the latency percentiles: population, universe and the lazy
	// first touches (a TLD's index is built by the first query that needs
	// it) make them 5 to 50 times the steady state. ops_per_s still pays
	// for them.
	sweepColdWindows = 2
)

// lookupSample is one reading of authserver.CacheTotals, hits plus misses:
// every exchange the audit makes ends in exactly one of the two.
type lookupSample struct {
	at      time.Duration
	lookups uint64
}

// sampleLookups reads the lookup count every sweepWindow until stop is
// closed, takes one last reading and sends them all. Two atomic loads ten
// times a second: the sweep does not notice it.
func sampleLookups(start time.Time, stop <-chan struct{}, out chan<- []lookupSample) {
	read := func() lookupSample {
		hits, misses := authserver.CacheTotals()
		return lookupSample{time.Since(start), hits + misses}
	}
	samples := []lookupSample{read()}
	tick := time.NewTicker(sweepWindow)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			samples = append(samples, read())
		case <-stop:
			out <- append(samples, read())
			return
		}
	}
}

// windowLatencies turns one repetition's samples into wall microseconds per
// audited domain, one value per window. The sweep's progress is not visible
// from outside, its authoritative lookups are, so a window's domains are its
// share of the repetition's lookups times the repetition's domains. Windows
// without a lookup (the closing GC at the back, a stall in between) are not
// dropped: their time goes to the next window that has one, or is left out
// when none follows. The first sweepColdWindows are left out, unless the
// repetition is so short (the smoke test's) that nothing else would remain.
func windowLatencies(samples []lookupSample, domains int) []float64 {
	total := samples[len(samples)-1].lookups - samples[0].lookups
	if total == 0 {
		return nil
	}
	perLookup := float64(domains) / float64(total)
	var out []float64
	from := samples[0]
	for _, s := range samples[1:] {
		if s.lookups == from.lookups {
			continue
		}
		out = append(out, float64((s.at-from.at).Microseconds())/(float64(s.lookups-from.lookups)*perLookup))
		from = s
	}
	if len(out) > sweepColdWindows {
		out = out[sweepColdWindows:]
	}
	return out
}

func runSweep(cfg runConfig) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var setups, rates, windows []float64
	var first leakRow
	start := time.Now()
	for rep := 0; rep < sweepMinReps || time.Since(start) < cfg.duration(); rep++ {
		stop, sampled := make(chan struct{}), make(chan []lookupSample, 1)
		go sampleLookups(time.Now(), stop, sampled)
		pt, row, err := sweepOnce(cfg)
		close(stop)
		samples := <-sampled
		if err != nil {
			return nil, err
		}
		t := pt.Timing
		logf("repetition %d: setup %.3fs warm %.3fs run %.3fs, %.0f domains/s, live heap %.1f MB, %d windows",
			rep+1, t.SetupWall.Seconds(), t.WarmWall.Seconds(), t.RunWall.Seconds(), t.DomainsPerSec, t.HeapAllocMB, len(samples)-1)
		if rep == 0 {
			first = row
			gateLeakRow(o, cfg, row)
		} else if row != first {
			o.problemf("repetition %d leak row %q differs from the first %q", rep+1, row, first)
		}
		setups = append(setups, (t.SetupWall + t.WarmWall).Seconds())
		rates = append(rates, t.DomainsPerSec)
		windows = append(windows, windowLatencies(samples, pt.Workload)...)
		o.attempted += int64(pt.Workload)
		o.failed += int64(pt.Metrics.Servfails)
	}
	o.values["setup_s"] = median(setups)
	o.values["ops_per_s"] = median(rates)
	// A batch has no per-request latency. Its latency metrics are over
	// windows of sweepWindow, pooled over the repetitions: p50_us is what a
	// domain costs in the typical tenth of a second, p90_us in the slow ones
	// (a GC cycle, a run of zones to materialise), where ops_per_s is the
	// mean over a whole repetition.
	sort.Float64s(windows)
	logf("latency over n=%d windows of %s", len(windows), sweepWindow)
	o.values["p50_us"] = percentile(windows, 0.50)
	o.values["p90_us"] = percentile(windows, 0.90)
	o.values["peak_rss_mb"] = peakRSSMB()
	return o, nil
}

// traceSweep is the sweep's traced run. The sweep builds its universe
// inside experiment.Sweep, so there is no handler to wrap and no network to
// tap from outside: the layer numbers are what one repetition reports about
// itself, the process-wide packet-cache totals, the runtime's counters, and
// the probes.
func traceSweep(cfg runConfig, sp *spec) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	v := o.values

	hits0, misses0 := authserver.CacheTotals()
	rtBefore := readRuntime()
	pt, row, err := sweepOnce(cfg)
	if err != nil {
		return nil, err
	}
	rtAfter := readRuntime()
	hits1, misses1 := authserver.CacheTotals()
	gateLeakRow(o, cfg, row)
	o.attempted = int64(pt.Workload)
	o.failed = int64(row.servfails)

	domains := float64(pt.Workload)
	v["sweep.dlv_queries"] = float64(row.dlvQueries)
	v["sweep.leaked"] = float64(row.leaked)
	v["sweep.case1"] = float64(row.case1)
	v["sweep.suppressed"] = float64(row.suppressed)
	v["sweep.servfails"] = float64(row.servfails)
	v["resolver.dlv_queries_per_query"] = float64(row.dlvQueries) / domains
	v["resolver.dlv_suppressed_per_query"] = float64(row.suppressed) / domains
	v["universe.cached_sld_zones"] = float64(pt.Metrics.MaterializedSLDs)
	v["authserver.pktcache_hit_ratio"] = 0
	if lookups := float64(hits1 - hits0 + misses1 - misses0); lookups > 0 {
		v["authserver.pktcache_hit_ratio"] = float64(hits1-hits0) / lookups
	}
	runtimeDelta(rtBefore, rtAfter, int64(pt.Workload), v)

	probes, err := runProbes(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, val := range probes {
		v[name] = val
	}
	// Nothing is hooked into the sweep, so tracing costs it nothing; the
	// serving-path spans and counters do not exist here.
	v["trace.overhead_pct"] = 0
	fillNotApplicable(v, sp.PerLayer, "client.", "gen.", "serve.", "udptransport.", "overload.", "ledger.",
		"resolver.answer_cache_hit_ratio", "resolver.infra_hit_ratio", "simnet.exchanges_per_query")
	return o, writeTrace(cfg, cfg.workload, v, nil)
}
