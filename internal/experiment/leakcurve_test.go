package experiment

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/par"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// sizeAudit is one separate audit of the top n domains: its report and
// the network traffic the universe carried while it ran.
type sizeAudit struct {
	rep     core.Report
	queries int
	bytes   int64
}

// auditPerSize is the reference the crawls are checked against: for each n
// in sizes, a separate audit of the top n by a fresh resolver, configured by
// cfgFor, on a shard of its own, on the universe uFor returns, the sizes
// run concurrently. The traffic counts are exact only where uFor builds
// each size a universe of its own; a shared universe's counters mix the
// concurrent audits.
func auditPerSize(p Params, pop *dataset.Population, sizes []int, cfgFor func(*universe.Universe) resolver.Config, uFor func() (*universe.Universe, error)) ([]sizeAudit, error) {
	out := make([]sizeAudit, len(sizes))
	err := par.Each(len(sizes), p.workers(), func(i int) error {
		n := sizes[i]
		u, err := uFor()
		if err != nil {
			return err
		}
		startQ, startB := u.Net.Stats()
		rep, err := runAudit(u, cfgFor(u), pop.Top(n))
		if err != nil {
			return fmt.Errorf("audit at n=%d: %w", n, err)
		}
		endQ, endB := u.Net.Stats()
		out[i] = sizeAudit{rep: rep, queries: endQ - startQ, bytes: endB - startB}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sharedUniverse builds one universe over pop and hands it to every size.
func sharedUniverse(t *testing.T, pop *dataset.Population, seed int64) func() (*universe.Universe, error) {
	t.Helper()
	u, err := buildUniverse(pop, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*universe.Universe, error) { return u, nil }
}

// crawlConfig is the resolver configuration of the crawling drivers.
func crawlConfig(u *universe.Universe) resolver.Config { return u.ResolverConfig(true, true) }

// forCrawlSeeds calls check at seeds 1-3 with the ladder's sizes and the
// population that covers them.
func forCrawlSeeds(t *testing.T, ladder []int, check func(p Params, sizes []int, pop *dataset.Population)) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		p := Params{Seed: seed, Scale: 100, Workers: 2}
		sizes := p.sizeLadder(ladder...)
		pop, err := buildPopulation(sizes[len(sizes)-1], p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		check(p, sizes, pop)
	}
}

// TestLeakCurveCrawlMatchesPerSizeAudits pins that reading Figs. 8/9 off
// one crawl changes no number: every point equals a separate audit of the
// top N, field for field, across seeds.
func TestLeakCurveCrawlMatchesPerSizeAudits(t *testing.T) {
	forCrawlSeeds(t, paperSampleSizes, func(p Params, sizes []int, pop *dataset.Population) {
		got, err := LeakCurve(p)
		if err != nil {
			t.Fatal(err)
		}
		audits, err := auditPerSize(p, pop, sizes, crawlConfig, sharedUniverse(t, pop, p.Seed))
		if err != nil {
			t.Fatal(err)
		}
		want := &LeakCurveResult{Points: make([]LeakPoint, len(sizes))}
		for i, a := range audits {
			want.Points[i] = leakPoint(sizes[i], a.rep)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the crawl differs from per-size audits:\ncrawl:    %+v\nper size: %+v",
				p.Seed, got.Points, want.Points)
		}
	})
}

// TestTable4CrawlMatchesPerSizeAudits pins Table 4's query-type census read
// off one crawl to a separate audit per workload size.
func TestTable4CrawlMatchesPerSizeAudits(t *testing.T) {
	forCrawlSeeds(t, table45Sizes, func(p Params, sizes []int, pop *dataset.Population) {
		got, err := Table4(p)
		if err != nil {
			t.Fatal(err)
		}
		audits, err := auditPerSize(p, pop, sizes, crawlConfig, sharedUniverse(t, pop, p.Seed))
		if err != nil {
			t.Fatal(err)
		}
		want := &Table4Result{Rows: make([]Table4Row, len(sizes))}
		for i, a := range audits {
			row := Table4Row{Domains: sizes[i], Counts: make(map[dns.Type]int), DLV: a.rep.Capture.DLVQueries}
			for _, typ := range table4Types {
				row.Counts[typ] = a.rep.Capture.QueriesByType[typ]
			}
			want.Rows[i] = row
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the crawl differs from per-size audits:\ncrawl:    %+v\nper size: %+v",
				p.Seed, got.Rows, want.Rows)
		}
	})
}

// TestTable5CrawlMatchesPerSizeAudits pins Table 5's costs and leak counts,
// read off one crawl per remedy mode, to a separate audit per workload size
// on a universe of its own (so each size's traffic is its own).
func TestTable5CrawlMatchesPerSizeAudits(t *testing.T) {
	forCrawlSeeds(t, table45Sizes, func(p Params, sizes []int, pop *dataset.Population) {
		got, err := Table5(p)
		if err != nil {
			t.Fatal(err)
		}
		perSize := func(txt bool) []measured {
			cfgFor := func(u *universe.Universe) resolver.Config {
				cfg := crawlConfig(u)
				if txt {
					cfg.Lookaside.Remedy = resolver.RemedyTXT
				}
				return cfg
			}
			audits, err := auditPerSize(p, pop, sizes, cfgFor, func() (*universe.Universe, error) {
				return buildUniverse(pop, p.Seed, func(o *universe.Options) { o.TXTRemedy = txt })
			})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]measured, len(audits))
			for i, a := range audits {
				out[i] = measured{
					cost:   RunCost{ResponseTime: a.rep.Elapsed, Bytes: a.bytes, Queries: a.queries},
					leaked: a.rep.Capture.Case2Domains,
				}
			}
			return out
		}
		base, remedy := perSize(false), perSize(true)
		want := &Table5Result{Rows: make([]Table5Row, len(sizes))}
		for i, n := range sizes {
			want.Rows[i] = Table5Row{
				Domains: n, Baseline: base[i].cost, Remedy: remedy[i].cost,
				BaselineLeaked: base[i].leaked, RemedyLeaked: remedy[i].leaked,
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: the crawl differs from per-size audits:\ncrawl:    %+v\nper size: %+v",
				p.Seed, got.Rows, want.Rows)
		}
	})
}
