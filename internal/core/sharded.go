package core

import (
	"runtime"
	"time"

	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/par"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// ShardedOptions configures a parallel audit.
type ShardedOptions struct {
	Options
	// Workers is the number of shards the workload is partitioned across;
	// <= 0 uses GOMAXPROCS. The shard count determines the merged report
	// (it fixes the workload partition and per-shard clock domains), so
	// callers that need run-to-run identical output pin it.
	Workers int
	// Parallelism bounds how many shards run concurrently; <= 0 runs all
	// of them at once (the historical behavior). Because each shard owns
	// its resolver, analyzer, and clock, and shards are merged in fixed
	// order, the report is identical at any Parallelism — it only changes
	// how many OS threads the same deterministic work spreads across.
	Parallelism int
}

// ShardedAuditor partitions a domain workload across N worker shards and
// merges their reports. Each shard owns a full auditor — its own resolver,
// capture analyzer, and clock domain — attached to the shared universe, so
// workers never contend on resolver or analyzer state; all shards share one
// RRSIG verification cache, so signed RRsets verified by one worker are
// free for the rest.
//
// Because every shard's clock advances only with that shard's exchanges,
// the merged report is a deterministic function of (universe, workload,
// worker count): goroutine interleaving cannot change it. With Workers=1
// the report is identical to what a single Auditor produces for the same
// workload.
type ShardedAuditor struct {
	u           *universe.Universe
	auditors    []*Auditor
	parallelism int
}

// NewShardedAuditor builds one shard auditor per worker. The resolver
// configuration is cloned per shard; if it carries no verification cache, a
// single fresh cache is shared across all shards.
func NewShardedAuditor(u *universe.Universe, opts ShardedOptions) (*ShardedAuditor, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.Resolver.VerifyCache == nil {
		opts.Resolver.VerifyCache = dnssec.NewVerifyCache()
	}
	parallelism := opts.Parallelism
	if parallelism <= 0 || parallelism > workers {
		parallelism = workers
	}
	s := &ShardedAuditor{
		u:           u,
		auditors:    make([]*Auditor, 0, workers),
		parallelism: parallelism,
	}
	for i := 0; i < workers; i++ {
		a, err := NewShardAuditor(u, opts.Options)
		if err != nil {
			return nil, err
		}
		s.auditors = append(s.auditors, a)
	}
	return s, nil
}

// Workers returns the shard count.
func (s *ShardedAuditor) Workers() int { return len(s.auditors) }

// blockBounds returns the [lo, hi) slice of an n-item workload owned by
// shard i of c: contiguous blocks, sizes differing by at most one, the
// remainder spread over the leading shards.
func blockBounds(n, c, i int) (lo, hi int) {
	base, rem := n/c, n%c
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// QueryDomains partitions the workload into contiguous blocks (one per
// shard, preserving the rank order inside each block) and runs the blocks
// on a pool of at most Parallelism goroutines. The shard→block assignment
// is fixed by shard index, so which goroutine happens to execute a shard
// (and in what order shards are picked up) cannot affect the result — only
// wall-clock. Any shard errors are joined.
func (s *ShardedAuditor) QueryDomains(domains []dataset.Domain) error {
	return par.Each(len(s.auditors), s.parallelism, func(i int) error {
		lo, hi := blockBounds(len(domains), len(s.auditors), i)
		return s.auditors[i].QueryDomains(domains[lo:hi])
	})
}

// Report folds every shard's auditor, in shard order: counters and
// query-mix tables sum, observed-domain sets union (Case-1 dominating, as
// in live capture), latency histograms add (so percentiles come from the
// exact pooled distribution without materializing one sample per query),
// and Elapsed is the slowest shard's simulated time — the parallel
// wall-clock analogue. Merge state is O(shards + distinct latency values),
// independent of workload size. Call it when the shards are quiescent.
func (s *ShardedAuditor) Report() Report {
	merged := capture.NewAnalyzer(analyzerConfig(s.u))
	var rep Report
	hist := make(map[time.Duration]int)
	count := 0
	for _, a := range s.auditors {
		merged.Merge(a.analyzer)
		rep.ResolverStats = rep.ResolverStats.Plus(a.r.Stats())
		rep.QueriedDomains += a.queried
		rep.StubQueries += a.stubQueries
		rep.SecureAnswers += a.secureAnswers
		rep.Servfails += a.servfails
		rep.Elapsed = max(rep.Elapsed, a.shard.Now()-a.started)
		for v, n := range a.latHist {
			hist[v] += n
		}
		count += a.latCount
	}
	rep.LatencyP50, rep.LatencyP95 = histPercentiles(hist, count)
	rep.Capture = merged.Snapshot()
	rep.observed = merged.ObservedDomains()
	return rep
}
