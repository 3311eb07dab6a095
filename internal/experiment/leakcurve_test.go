package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/par"
)

// leakCurvePerSize is the reference LeakCurve is checked against: one
// separate audit, by a fresh resolver on a shard of its own, per sample
// size, the sizes run concurrently on the shared universe.
func leakCurvePerSize(p Params) (*LeakCurveResult, error) {
	sizes := leakCurveSizes(p)
	pop, err := buildPopulation(sizes[len(sizes)-1], p.Seed)
	if err != nil {
		return nil, err
	}
	u, err := buildUniverse(pop, p.Seed, nil)
	if err != nil {
		return nil, err
	}
	res := &LeakCurveResult{Points: make([]LeakPoint, len(sizes))}
	err = par.Each(len(sizes), p.workers(), func(i int) error {
		n := sizes[i]
		rep, err := runAudit(u, auditSetup{withRootAnchor: true, withLookaside: true}, pop.Top(n))
		if err != nil {
			return fmt.Errorf("leak curve at n=%d: %w", n, err)
		}
		res.Points[i] = leakPoint(n, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TestLeakCurveCrawlMatchesPerSizeAudits pins that reading Figs. 8/9 off
// one crawl changes no number: every point equals a separate audit of the
// top N, field for field, across seeds.
func TestLeakCurveCrawlMatchesPerSizeAudits(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := Params{Seed: seed, Scale: 100, Workers: 2}
		got, err := LeakCurve(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := leakCurvePerSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the crawl differs from per-size audits:\ncrawl:    %+v\nper size: %+v",
				seed, got.Points, want.Points)
		}
	}
}
