package experiment

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/resolver"
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
// sweep's answer and zone caps: the 10k point under caps far below them
// reads exactly as under the sweep's own. Nor does it depend on the
// authoritative servers' packet-cache cap: one entry, the sweep's 64 and
// the authserver default read alike. Capping the NSEC span store instead
// must move DLVQueries, which shows the test can fail.
func TestSweepCacheCaps(t *testing.T) {
	const n, seed = 10_000, int64(1)
	run := func(opts sweepOpts) SweepMetrics {
		pt, err := sweepPoint(n, seed, 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pt.Metrics
	}
	base := run(sweepOpts{})
	if tight := run(sweepOpts{limits: resolver.CacheLimits{Answers: 256, Zones: 128}}); tight != base {
		t.Errorf("leak table moved under tight caps:\nsweep caps: %+v\ntight caps: %+v", base, tight)
	}
	for _, pc := range []struct {
		name string
		cap  int
	}{{"1", 1}, {"the authserver default", -1}} {
		if got := run(sweepOpts{packetCacheCap: pc.cap}); got != base {
			t.Errorf("leak table moved with packet-cache cap %s:\ncap %d: %+v\ncap %s: %+v",
				pc.name, sweepPacketCacheCap, base, pc.name, got)
		}
	}
	spans := run(sweepOpts{limits: resolver.CacheLimits{
		Answers: sweepAnswerCap, Zones: sweepZoneCap, Spans: 64,
	}})
	if spans.DLVQueries == base.DLVQueries {
		t.Errorf("capping the span store left DLVQueries at %d", base.DLVQueries)
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
