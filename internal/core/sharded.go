package core

import (
	"fmt"
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
	// OnShardDone, when non-nil, is called after each shard finishes its
	// workload block without error (from that shard's worker goroutine;
	// the callback synchronizes itself). Sweeps use it to checkpoint.
	OnShardDone func(shard int)
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
	// restored[i], when non-nil, is shard i's imported checkpoint state:
	// QueryDomains skips the shard's block and ExportShardState returns the
	// state in place of the idle auditor's, so a resumed sweep merges to
	// the same report as an uninterrupted one.
	restored    []*ShardState
	onShardDone func(int)
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
		restored:    make([]*ShardState, workers),
		onShardDone: opts.OnShardDone,
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

// RestoreShardState marks shard i as already complete with the given
// checkpointed state: QueryDomains will skip its block and Report will
// merge the state in the shard's fixed position.
func (s *ShardedAuditor) RestoreShardState(i int, st *ShardState) error {
	if i < 0 || i >= len(s.auditors) {
		return fmt.Errorf("core: restoring shard %d of %d", i, len(s.auditors))
	}
	if st == nil || st.Capture == nil {
		return fmt.Errorf("core: restoring shard %d: empty state", i)
	}
	s.restored[i] = st
	return nil
}

// ExportShardState returns shard i's contribution: the imported checkpoint
// state if the shard was restored, else an export of its live auditor.
// Call it only when the shard is quiescent (its block finished).
func (s *ShardedAuditor) ExportShardState(i int) *ShardState {
	if st := s.restored[i]; st != nil {
		return st
	}
	return s.auditors[i].ExportState()
}

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
		// A restored shard's block already ran (in the run that wrote the
		// checkpoint); re-running it would double-count.
		if s.restored[i] != nil {
			return nil
		}
		var err error
		if lo, hi := blockBounds(len(domains), len(s.auditors), i); lo != hi {
			err = s.auditors[i].QueryDomains(domains[lo:hi])
		}
		if err == nil && s.onShardDone != nil {
			s.onShardDone(i)
		}
		return err
	})
}

// Report folds every shard's exported state, in shard order: counters and
// query-mix tables sum, observed-domain sets union (Case-1 dominating, as
// in live capture), latency histograms add (so percentiles come from the
// exact pooled distribution without materializing one sample per query),
// and Elapsed is the slowest shard's simulated time — the parallel
// wall-clock analogue. A shard that ran here and one restored from a
// checkpoint go through the same fold, so they cannot be told apart. Merge
// state is O(shards + distinct latency values), independent of workload
// size.
func (s *ShardedAuditor) Report() Report {
	merged := capture.NewAnalyzer(analyzerConfig(s.u))
	var rep Report
	hist := make(map[time.Duration]int)
	count := 0
	for i := range s.auditors {
		st := s.ExportShardState(i)
		merged.ImportState(st.Capture)
		rep.ResolverStats = rep.ResolverStats.Plus(st.Stats)
		rep.QueriedDomains += st.Queried
		rep.StubQueries += st.StubQueries
		rep.SecureAnswers += st.SecureAnswers
		rep.Servfails += st.Servfails
		rep.Elapsed = max(rep.Elapsed, st.Elapsed)
		for _, bin := range st.Lat {
			hist[bin.Value] += bin.Count
		}
		count += st.LatCount
	}
	rep.LatencyP50, rep.LatencyP95 = histPercentiles(hist, count)
	rep.Capture = merged.Snapshot()
	rep.observed = merged.ObservedDomains()
	return rep
}
