package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// TestSweepInvariance extends the Workers contract to the sweep engine:
// lazy materialization plus the shared infrastructure cache must leave the
// deterministic metrics of every point identical at workers=1 vs
// workers=8, and two runs with the same seed must agree exactly. The
// rendered leak table — the experiment's user-visible output minus the
// wall-clock timing lines — must be byte-identical too. Run under -race
// this also exercises the pooled scratches (query buffers, signing
// buffers, HMAC states) across concurrently executing shards.
func TestSweepInvariance(t *testing.T) {
	populations := []int{60, 120, 250}
	run := func(workers int) ([]SweepMetrics, string) {
		res, err := Sweep(Params{Seed: 7, Workers: workers}, populations)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]SweepMetrics, len(res.Points))
		table := &SweepResult{Points: make([]SweepPoint, len(res.Points))}
		for i, pt := range res.Points {
			if pt.Population != populations[i] || pt.Workload != populations[i] {
				t.Fatalf("point %d: population=%d workload=%d, want %d",
					i, pt.Population, pt.Workload, populations[i])
			}
			out[i] = pt.Metrics
			// Zeroed Timing: String() then depends on Metrics alone.
			table.Points[i] = SweepPoint{Population: pt.Population, Workload: pt.Workload, Metrics: pt.Metrics}
		}
		return out, table.String()
	}
	w1, t1 := run(1)
	w8, t8 := run(8)
	if !reflect.DeepEqual(w1, w8) {
		t.Errorf("sweep metrics differ across Workers:\nw=1: %+v\nw=8: %+v", w1, w8)
	}
	if t1 != t8 {
		t.Errorf("rendered leak table differs across Workers:\nw=1:\n%s\nw=8:\n%s", t1, t8)
	}
	if again, _ := run(1); !reflect.DeepEqual(w1, again) {
		t.Errorf("sweep metrics differ across same-seed runs:\nfirst:  %+v\nsecond: %+v", w1, again)
	}
	if w1[0].Servfails != 0 || w1[0].DLVQueries == 0 {
		t.Errorf("smallest point looks wrong: %+v", w1[0])
	}
}

// TestSweepCacheCaps pins that the leak table does not depend on the
// sweep's answer and zone caps: at seeds 1-3 the 10k point reads exactly
// as under the sweep's own caps under the previous 1<<15 / 1<<14 and under
// 256 / 128. Nor does it depend on the authoritative servers' packet-cache
// cap: one entry, the sweep's 64 and the authserver default read alike.
// Capping the NSEC span store instead must move DLVQueries, which shows the
// test can fail.
func TestSweepCacheCaps(t *testing.T) {
	const n = 10_000
	run := func(seed int64, opts sweepOpts) SweepMetrics {
		pt, err := sweepPoint(n, seed, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Metrics
	}
	for seed := int64(1); seed <= 3; seed++ {
		base := run(seed, sweepOpts{})
		for _, limits := range []resolver.CacheLimits{{Answers: 1 << 15, Zones: 1 << 14}, {Answers: 256, Zones: 128}} {
			if got := run(seed, sweepOpts{limits: limits}); got != base {
				t.Errorf("seed %d: leak table moved under caps %d / %d:\nsweep caps: %+v\nthose caps: %+v",
					seed, limits.Answers, limits.Zones, base, got)
			}
		}
		if seed > 1 {
			continue
		}
		for _, pc := range []struct {
			name string
			cap  int
		}{{"1", 1}, {"the authserver default", -1}} {
			if got := run(seed, sweepOpts{packetCacheCap: pc.cap}); got != base {
				t.Errorf("leak table moved with packet-cache cap %s:\ncap %d: %+v\ncap %s: %+v",
					pc.name, sweepPacketCacheCap, base, pc.name, got)
			}
		}
		spans := run(seed, sweepOpts{limits: resolver.CacheLimits{
			Answers: sweepAnswerCap, Zones: sweepZoneCap, Spans: 64,
		}})
		if spans.DLVQueries == base.DLVQueries {
			t.Errorf("capping the span store left DLVQueries at %d", base.DLVQueries)
		}
	}
}

type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

// TestRun: outcomes come back in input order at any width, and an error
// stays with its experiment.
func TestRun(t *testing.T) {
	boom := errors.New("boom")
	exp := func(name string, res fmt.Stringer, err error) Experiment {
		return Experiment{Name: name, Run: func(Inputs) (fmt.Stringer, error) { return res, err }}
	}
	exps := []Experiment{exp("a", stringerFunc("ra"), nil), exp("b", stringerFunc("partial"), boom), exp("c", stringerFunc("rc"), nil)}
	for _, workers := range []int{1, 2, 8} {
		out := Run(exps, Inputs{Params: Params{Workers: workers}})
		if len(out) != 3 || out[0].Name != "a" || out[0].Result != stringerFunc("ra") || out[0].Err != nil ||
			out[1].Name != "b" || out[1].Result != nil || !errors.Is(out[1].Err, boom) ||
			out[2].Name != "c" || out[2].Result != stringerFunc("rc") || out[2].Err != nil {
			t.Errorf("workers=%d: %+v", workers, out)
		}
	}
}

// TestSelect: registry order whatever the spec's order, and fig8 with fig9
// share one leakCurves run, which comes first and is not a name of its own.
func TestSelect(t *testing.T) {
	for spec, want := range map[string]string{"fleet,table1": "table1 fleet", "fig9": "fig9", "fig9, fig8,table1": "fig8+fig9 table1"} {
		exps, err := Select(spec)
		var names []string
		for _, e := range exps {
			names = append(names, e.Name)
		}
		if got := strings.Join(names, " "); err != nil || got != want {
			t.Errorf("Select(%q) = %q, %v; want %s", spec, got, err, want)
		}
	}
	if _, err := Select("fig8+fig9"); err == nil {
		t.Error("the joint run is selectable by name")
	}
	if all, _ := Select("all"); len(all) != len(Registry)-1 || all[0].Name != "fig8+fig9" {
		t.Errorf("all: %d entries, first %s", len(all), all[0].Name)
	}
}

// sweepWorkingSet audits the n-domain sweep point on the sweep's shards, in
// the sweep's partition, under caches too large to evict, one domain at a
// time, and returns the most positive answers, negative answers and zone
// records any one domain added to its shard's private cache.
func sweepWorkingSet(t *testing.T, n int, seed int64) (pos, neg, zones int) {
	t.Helper()
	pop, err := buildPopulation(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	u, err := buildUniverse(pop, seed, func(o *universe.Options) { o.PacketCacheCap = sweepPacketCacheCap })
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepConfig(u, resolver.CacheLimits{Answers: 1 << 24, Zones: 1 << 24})
	if cfg.Infra, err = core.WarmInfra(u, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.VerifyCache = dnssec.NewVerifyCache()
	domains := pop.Top(n)
	for i := 0; i < sweepShards; i++ {
		a, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := i*n/sweepShards, (i+1)*n/sweepShards
		before := a.Resolver().CacheSizes()
		for _, d := range domains[lo:hi] {
			if err := a.QueryDomain(d.Name); err != nil {
				t.Fatal(err)
			}
			after := a.Resolver().CacheSizes()
			pos = max(pos, after.Positive-before.Positive)
			neg = max(neg, after.Negative-before.Negative)
			zones = max(zones, after.Zones-before.Zones)
			before = after
		}
	}
	return pos, neg, zones
}

// TestSweepWorkingSet holds the sweep's caps to their rule: a cache
// generation (half a cap) holds 128 times the most entries one domain adds
// to its shard's private cache. The 10k point is measured here; the 100k
// point, which the caps were sized on, reads the same 4 / 4 / 1 and takes
// about 20 s.
func TestSweepWorkingSet(t *testing.T) {
	const multiple = 128
	pos, neg, zones := sweepWorkingSet(t, 10_000, 1)
	t.Logf("one domain adds at most %d positive answers, %d negative answers, %d zone records", pos, neg, zones)
	if pos == 0 || neg == 0 || zones == 0 {
		t.Fatalf("working set %d / %d / %d: the measurement saw no inserts", pos, neg, zones)
	}
	if got, want := sweepAnswerCap/2, multiple*max(pos, neg); got < want {
		t.Errorf("answer generation %d entries, rule wants %d (%d x %d)", got, want, multiple, max(pos, neg))
	}
	if got, want := sweepZoneCap/2, multiple*zones; got < want {
		t.Errorf("zone generation %d entries, rule wants %d (%d x %d)", got, want, multiple, zones)
	}
}
