package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

func buildUniverse(t *testing.T, seed int64) (*universe.Universe, *dataset.Population) {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: seed, Population: pop, Extra: dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return u, pop
}

func auditorConfig(u *universe.Universe) Options {
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	return Options{Resolver: cfg}
}

// TestShardedMatchesSequential pins the tentpole's equivalence claim: a
// ShardedAuditor with one worker produces a Report identical to the
// sequential Auditor's, field for field, across seeds.
func TestShardedMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		u, pop := buildUniverse(t, seed)
		workload := pop.Top(60)

		seq, err := NewAuditor(u, auditorConfig(u))
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.QueryDomains(workload); err != nil {
			t.Fatal(err)
		}
		// Snapshot before the sharded run: the sequential analyzer is a
		// global tap and would otherwise keep counting shard traffic.
		want := seq.Report()

		sharded, err := NewShardedAuditor(u, ShardedOptions{Options: auditorConfig(u), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := sharded.QueryDomains(workload); err != nil {
			t.Fatal(err)
		}
		got := sharded.Report()

		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: sharded(workers=1) report differs from sequential:\nseq:  %+v\nshrd: %+v",
				seed, want, got)
		}
	}
}

// TestShardedDeterministic asserts the merged report at a fixed worker
// count is reproducible: goroutine scheduling must not leak into results.
func TestShardedDeterministic(t *testing.T) {
	u, pop := buildUniverse(t, 2)
	workload := pop.Top(90)

	run := func() Report {
		s, err := NewShardedAuditor(u, ShardedOptions{Options: auditorConfig(u), Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.QueryDomains(workload); err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("workers=3 report not reproducible:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.QueriedDomains != len(workload) {
		t.Errorf("QueriedDomains = %d, want %d", first.QueriedDomains, len(workload))
	}
}

func TestBlockBounds(t *testing.T) {
	for _, tc := range []struct{ n, c int }{{10, 3}, {7, 7}, {3, 8}, {0, 4}, {100, 1}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.c; i++ {
			lo, hi := blockBounds(tc.n, tc.c, i)
			if lo != prevHi {
				t.Fatalf("n=%d c=%d shard %d: lo=%d, want %d", tc.n, tc.c, i, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("n=%d c=%d shard %d: hi=%d < lo=%d", tc.n, tc.c, i, hi, lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("n=%d c=%d: covered %d ending at %d", tc.n, tc.c, covered, prevHi)
		}
	}
}

// percentiles is the oracle histPercentiles is checked against: the
// nearest-rank (Hyndman-Fan type 1) 50th and 95th percentile of a raw latency
// sample, the value at 1-based rank ceil(p·n). The sample is copied into
// scratch (grown as needed) and sorted there; the possibly regrown scratch
// is returned for reuse.
func percentiles(samples, scratch []time.Duration) (p50, p95 time.Duration, _ []time.Duration) {
	n := len(samples)
	if n == 0 {
		return 0, 0, scratch
	}
	scratch = append(scratch[:0], samples...)
	slices.Sort(scratch)
	rank := func(p float64) int {
		i := int(math.Ceil(p*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	return scratch[rank(0.50)], scratch[rank(0.95)], scratch
}

// TestPercentilesNearestRank pins the nearest-rank definition on known
// samples; the old truncating index under-reported p95 on small samples.
func TestPercentilesNearestRank(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	samples := make([]time.Duration, 0, 10)
	for v := 10; v >= 1; v-- { // unsorted input on purpose
		samples = append(samples, ms(v))
	}
	p50, p95, scratch := percentiles(samples, nil)
	if p50 != ms(5) || p95 != ms(10) {
		t.Errorf("n=10: p50=%v p95=%v, want 5ms/10ms", p50, p95)
	}
	// n=4: rank ceil(0.5*4)=2 → 2ms; rank ceil(0.95*4)=4 → 4ms. The old
	// truncating index returned int(0.95*3)=2 → 3ms for p95.
	p50, p95, scratch = percentiles([]time.Duration{ms(4), ms(1), ms(3), ms(2)}, scratch)
	if p50 != ms(2) || p95 != ms(4) {
		t.Errorf("n=4: p50=%v p95=%v, want 2ms/4ms", p50, p95)
	}
	// Single sample: both percentiles are that sample.
	p50, p95, _ = percentiles([]time.Duration{ms(7)}, scratch)
	if p50 != ms(7) || p95 != ms(7) {
		t.Errorf("n=1: p50=%v p95=%v, want 7ms/7ms", p50, p95)
	}
	// The input must not be reordered by the call.
	if samples[0] != ms(10) || samples[9] != ms(1) {
		t.Error("percentiles mutated its input")
	}
}

// TestHistPercentilesMatch pins the histogram path to the sample path: for
// random samples the histogram percentiles must equal the nearest-rank
// percentiles of the raw sample, so switching the auditors to streaming
// histograms changed no reported number.
func TestHistPercentilesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		samples := make([]time.Duration, n)
		hist := make(map[time.Duration]int)
		for i := range samples {
			// Few distinct values, like simulated link-latency sums.
			v := time.Duration(1+rng.Intn(12)) * time.Millisecond
			samples[i] = v
			hist[v]++
		}
		wantP50, wantP95, _ := percentiles(samples, nil)
		gotP50, gotP95 := histPercentiles(hist, n)
		if gotP50 != wantP50 || gotP95 != wantP95 {
			t.Fatalf("trial %d (n=%d): hist (%v, %v) != sample (%v, %v)",
				trial, n, gotP50, gotP95, wantP50, wantP95)
		}
	}
	if p50, p95 := histPercentiles(nil, 0); p50 != 0 || p95 != 0 {
		t.Errorf("empty histogram: (%v, %v), want zeros", p50, p95)
	}
}
