package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// Fig12Result carries the trace-driven overhead evaluation of §6.2.3.
type Fig12Result struct {
	// PerMinute is the query rate series (Fig. 12a).
	PerMinute []int
	// Cumulative is the running query total (Fig. 12b).
	Cumulative []int64
	// BaselineBytes / OverheadBytes are the cumulative byte series at the
	// recursive: serving the queries, and the extra TXT signaling
	// (Fig. 12c).
	BaselineBytes []int64
	OverheadBytes []int64
	// SampledQueries is how many queries were actually resolved to
	// calibrate per-query byte costs (the rest are extrapolated).
	SampledQueries int
}

// Fig12 runs experiment E11: a DITL-like 7-hour recursive workload. Per
// minute, a deterministic sample of queries is resolved on two identically
// seeded universes — baseline DLV and TXT-remedy — to calibrate bytes per
// query; the minute's full volume is then extrapolated from the calibrated
// rates, exactly how the paper scales its own estimate to the full trace.
// The trace's rates are divided by Params.Scale; minutes > 0 replaces the
// paper's 7 hours.
func Fig12(p Params, minutes int) (*Fig12Result, error) {
	traceCfg := dataset.DefaultTraceConfig()
	traceCfg.Scale = p.scale()
	traceCfg.Seed = p.Seed
	if minutes > 0 {
		traceCfg.Minutes = minutes
	}
	trace, err := dataset.GenerateTrace(traceCfg)
	if err != nil {
		return nil, err
	}
	popSize := p.scaled(100_000, 500)
	pop, err := buildPopulation(popSize, p.Seed)
	if err != nil {
		return nil, err
	}

	base, err := newTraceRig(pop, p.Seed, resolver.RemedyNone)
	if err != nil {
		return nil, err
	}
	remedy, err := newTraceRig(pop, p.Seed, resolver.RemedyTXT)
	if err != nil {
		return nil, err
	}

	const samplesPerMinute = 40
	rng := rand.New(rand.NewSource(p.Seed ^ 0xF16))
	res := &Fig12Result{
		PerMinute:  trace.PerMinute,
		Cumulative: trace.Cumulative(),
	}
	var cumBase, cumOver int64
	for minute, count := range trace.PerMinute {
		k := count
		if k > samplesPerMinute {
			k = samplesPerMinute
		}
		idx := dataset.SampleNames(rng, len(pop.Domains), k)
		bBytes, err := base.resolveSample(pop, idx)
		if err != nil {
			return nil, fmt.Errorf("fig12 minute %d baseline: %w", minute, err)
		}
		rBytes, err := remedy.resolveSample(pop, idx)
		if err != nil {
			return nil, fmt.Errorf("fig12 minute %d remedy: %w", minute, err)
		}
		res.SampledQueries += k
		// Extrapolate the minute's volume from the sampled per-query cost.
		perQBase := float64(bBytes) / float64(max(k, 1))
		perQRem := float64(rBytes) / float64(max(k, 1))
		cumBase += int64(perQBase * float64(count))
		over := perQRem - perQBase
		if over < 0 {
			over = 0
		}
		cumOver += int64(over * float64(count))
		res.BaselineBytes = append(res.BaselineBytes, cumBase)
		res.OverheadBytes = append(res.OverheadBytes, cumOver)
		// Advance both universes to the minute boundary so TTLs behave.
		base.u.Net.Advance(time.Minute)
		remedy.u.Net.Advance(time.Minute)
	}
	return res, nil
}

// traceRig is one (universe, resolver) pair of the trace experiment.
type traceRig struct {
	u      *universe.Universe
	r      *resolver.Resolver
	nextID uint16
}

func newTraceRig(pop *dataset.Population, seed int64, remedy resolver.RemedyMode) (*traceRig, error) {
	u, err := buildUniverse(pop, seed, func(o *universe.Options) {
		o.TXTRemedy = remedy == resolver.RemedyTXT
	})
	if err != nil {
		return nil, err
	}
	cfg := u.ResolverConfig(true, true)
	cfg.Lookaside.Remedy = remedy
	r, err := u.StartResolver(cfg)
	if err != nil {
		return nil, err
	}
	return &traceRig{u: u, r: r}, nil
}

// resolveSample resolves the sampled population indices through the stub
// path and returns the bytes carried.
func (t *traceRig) resolveSample(pop *dataset.Population, idx []int) (int64, error) {
	_, before := t.u.Net.Stats()
	for _, i := range idx {
		t.nextID++
		if _, err := t.u.StubQuery(t.nextID, pop.Domains[i].Name, dns.TypeA); err != nil {
			return 0, err
		}
	}
	_, after := t.u.Net.Stats()
	return after - before, nil
}

// String renders the three panels.
func (r *Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Fig. 12 — DITL-like trace (%d minutes, %d sampled resolutions) ==\n",
		len(r.PerMinute), r.SampledQueries)
	rate := &metrics.Series{Name: "queries/min"}
	cum := &metrics.Series{Name: "cumulative"}
	cb := &metrics.Series{Name: "baseline MB"}
	co := &metrics.Series{Name: "overhead MB"}
	step := len(r.PerMinute) / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.PerMinute); i += step {
		x := float64(i)
		rate.Add(x, float64(r.PerMinute[i]))
		cum.Add(x, float64(r.Cumulative[i]))
		cb.Add(x, float64(r.BaselineBytes[i])/1e6)
		co.Add(x, float64(r.OverheadBytes[i])/1e6)
	}
	f := metrics.Figure{
		Title:  "Fig. 12a/b/c — per-minute rate, cumulative queries, cumulative bytes",
		XLabel: "minute", YLabel: "mixed",
		Series: []*metrics.Series{rate, cum, cb, co},
	}
	b.WriteString(f.String())
	last := len(r.PerMinute) - 1
	fmt.Fprintf(&b, "total queries: %d; baseline %.1f MB; overhead %.1f MB (%.2f%% of baseline)\n",
		r.Cumulative[last], float64(r.BaselineBytes[last])/1e6, float64(r.OverheadBytes[last])/1e6,
		100*float64(r.OverheadBytes[last])/float64(max(r.BaselineBytes[last], 1)))
	return b.String()
}
