package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// smokeScale runs every workload at about 1 % of its size. Nothing here
// asserts a timing.
const smokeScale = 0.01

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, seconds: 0.3, trace: trace, scale: smokeScale, outDir: t.TempDir()}
}

// TestSmoke runs each workload both ways and holds the benchmark to its own
// contract: runWorkload fails unless the emitted names are exactly
// BENCHMARK.json's (loadSpec has already checked their form, units,
// directions and bounds), every run is correct, the generator stays within
// nproc sockets, and no per-layer metric is 0 everywhere — the sign of one
// that was declared and then forgotten.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 4 {
		t.Errorf("BENCHMARK.json names %d workloads, want the 4 of ISSUE 13", len(sp.Workloads))
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s [s, lower]")
	}
	if len(sp.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(sp.PerLayer))
	}

	nonzero := map[string]bool{}
	for _, w := range sp.Workloads {
		res, err := runWorkload(sp, smokeConfig(t, w.Name, false))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		}
		for name, m := range res.Metrics {
			if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be a positive number", w.Name, name, m.Value)
			}
		}

		layers, err := runWorkload(sp, smokeConfig(t, w.Name, true))
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !layers.Correct {
			t.Errorf("%s traced: not correct", w.Name)
		}
		if n := layers.Metrics["gen.sockets"].Value; n > float64(runtime.NumCPU()) {
			t.Errorf("%s: generator opened %v sockets on %d CPUs", w.Name, n, runtime.NumCPU())
		}
		for name, m := range layers.Metrics {
			if m.Value != 0 {
				nonzero[name] = true
			}
		}
	}
	// Counters of things that must not happen on a healthy run; the root is
	// among them because the sealed infrastructure cache answers for it. The
	// gate's counters are here too: at 1 % size the storm does not always
	// overload the pool.
	mayBeZero := map[string]bool{
		"udptransport.truncated": true, "udptransport.malformed": true,
		"sweep.servfails": true, "client.failed_share": true,
		"simnet.exchanges_per_query.root": true,
		"overload.shed_share":             true, "overload.shed_window": true,
		"overload.shed_queue": true, "overload.queue_p99_ms": true,
	}
	for _, m := range sp.PerLayer {
		if !nonzero[m.Name] && !mayBeZero[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCheckResponse(t *testing.T) {
	qb := newQuerier()
	query := append([]byte(nil), qb.wire(7, "example.com.")...)
	answer := append([]byte(nil), query...)
	answer[2] |= 0x80
	shed := []byte{0, 7, 0x81, 0x05, 0, 0, 0, 0, 0, 0, 0, 0}
	servfail := append([]byte(nil), answer...)
	servfail[3] = 0x02
	truncated := append([]byte(nil), answer...)
	truncated[2] |= 0x02

	for _, c := range []struct {
		name string
		id   uint16
		resp []byte
		want verdict
	}{
		{"answer", 7, answer, vAnswer},
		{"other id", 8, answer, vStale},
		{"query echoed back", 7, query, vMismatch},
		{"header-only REFUSED", 7, shed, vRefused},
		{"servfail", 7, servfail, vServfail},
		{"truncated", 7, truncated, vMismatch},
		{"short", 7, answer[:11], vMismatch},
		{"question cut", 7, answer[:20], vMismatch},
	} {
		if got, _ := checkResponse(c.id, c.resp); got != c.want {
			t.Errorf("%s: verdict %d, want %d", c.name, got, c.want)
		}
	}
	if _, echo := checkResponse(7, answer); string(echo) != string(questionOf(query)) {
		t.Error("answer's echoed question differs from the query's")
	}
}

func TestMatchSpans(t *testing.T) {
	client := []clientSpan{{id: 1, start: 100, end: 200}, {id: 2, start: 210, end: 300}, {id: 1, start: 400, end: 500}}
	server := []serverSpan{
		{id: 1, start: 50, end: 60},   // before any client span: the untraced phase
		{id: 1, start: 120, end: 150}, // inside the first
		{id: 2, start: 220, end: 350}, // ends after its client gave up: no match
		{id: 1, start: 410, end: 480}, // inside the third
	}
	got := matchSpans(client, server)
	if len(got) != 2 {
		t.Fatalf("matched %d requests, want 2: %+v", len(got), got)
	}
	if got[0].TransportSelfNs != 70 || got[1].TransportSelfNs != 30 {
		t.Errorf("self times %d and %d, want 70 and 30", got[0].TransportSelfNs, got[1].TransportSelfNs)
	}
}

func TestWindowLatencies(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// 1000 lookups for 100 domains: 10 lookups to a domain. Two cold
	// windows, one steady, one stalled without a lookup, whose time goes to
	// the window after it, and a closing window without one, which is left
	// out.
	samples := []lookupSample{
		{ms(0), 0}, {ms(100), 100}, {ms(200), 300},
		{ms(300), 500}, {ms(400), 500}, {ms(500), 1000}, {ms(600), 1000},
	}
	got := windowLatencies(samples, 100)
	want := []float64{5000, 4000} // us per domain: 100 ms for 20 domains, 200 ms for 50
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("windowLatencies = %v, want %v", got, want)
	}
	if got := windowLatencies(samples[:3], 100); len(got) != 2 {
		t.Errorf("a repetition of two windows kept %d of them, want both", len(got))
	}
	if got := windowLatencies([]lookupSample{{ms(0), 7}, {ms(100), 7}}, 100); got != nil {
		t.Errorf("no lookups gave %v, want nothing", got)
	}
}
