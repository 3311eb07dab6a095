package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// RunCost is the three-metric cost of one measured run (the paper's
// response time, traffic volume, and number of issued queries).
type RunCost struct {
	ResponseTime time.Duration
	Bytes        int64
	Queries      int
}

// Table5Row is one workload size of the TXT-remedy overhead table.
type Table5Row struct {
	Domains  int
	Baseline RunCost
	Remedy   RunCost
	// Leakage compares Case-2 domains with and without the remedy: the
	// benefit bought by the overhead.
	BaselineLeaked int
	RemedyLeaked   int
}

// Overhead returns the extra cost of the remedy over the baseline (clamped
// at zero: the remedy can also save queries by suppressing look-asides).
func (r Table5Row) Overhead() RunCost {
	return RunCost{
		ResponseTime: r.Remedy.ResponseTime - r.Baseline.ResponseTime,
		Bytes:        r.Remedy.Bytes - r.Baseline.Bytes,
		Queries:      r.Remedy.Queries - r.Baseline.Queries,
	}
}

// Table5Result carries the overhead sweep.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 runs experiment E9 (Table 5 / Fig. 10): measure the cost of the
// TXT-signaling remedy against the plain-DLV baseline for growing
// workloads, each mode's rows read off one crawl.
func Table5(p Params) (*Table5Result, error) {
	sizes := p.sizeLadder(table45Sizes...)
	pop, err := buildPopulation(sizes[len(sizes)-1], p.Seed)
	if err != nil {
		return nil, err
	}
	base, err := measureCost(pop, p.Seed, sizes, resolver.RemedyNone)
	if err != nil {
		return nil, fmt.Errorf("table5 baseline: %w", err)
	}
	remedy, err := measureCost(pop, p.Seed, sizes, resolver.RemedyTXT)
	if err != nil {
		return nil, fmt.Errorf("table5 remedy: %w", err)
	}
	res := &Table5Result{Rows: make([]Table5Row, len(sizes))}
	for i, n := range sizes {
		res.Rows[i] = Table5Row{
			Domains:        n,
			Baseline:       base[i].cost,
			Remedy:         remedy[i].cost,
			BaselineLeaked: base[i].leaked,
			RemedyLeaked:   remedy[i].leaked,
		}
	}
	return res, nil
}

// measured bundles a run's cost and leakage.
type measured struct {
	cost   RunCost
	leaked int
}

// measureCost crawls the top domains of pop under a remedy mode on a fresh
// universe (fresh server remedy config and clock) and returns the cost and
// leakage of the first n domains for each n in sizes.
func measureCost(pop *dataset.Population, seed int64, sizes []int, remedy resolver.RemedyMode) ([]measured, error) {
	u, err := buildUniverse(pop, seed, func(o *universe.Options) {
		o.TXTRemedy = remedy == resolver.RemedyTXT
		o.ZBitRemedy = remedy == resolver.RemedyZBit
	})
	if err != nil {
		return nil, err
	}
	startQ, startB := u.Net.Stats()
	out := make([]measured, len(sizes))
	cfg := u.ResolverConfig(true, true)
	cfg.Lookaside.Remedy = remedy
	err = crawl(u, cfg, pop, sizes, func(i int, rep core.Report) {
		q, b := u.Net.Stats()
		out[i] = measured{
			cost:   RunCost{ResponseTime: rep.Elapsed, Bytes: b - startB, Queries: q - startQ},
			leaked: rep.Capture.Case2Domains,
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// String renders Table 5 in the paper's layout.
func (r *Table5Result) String() string {
	t := metrics.Table{
		Title: "Table 5 — TXT-remedy overhead (baseline / overhead / ratio)",
		Header: []string{
			"#Domains",
			"RT base (s)", "RT over (s)", "RT ratio",
			"MB base", "MB over", "MB ratio",
			"Q base", "Q over", "Q ratio",
			"leaked base", "leaked remedy",
		},
	}
	for _, row := range r.Rows {
		ov := row.Overhead()
		t.AddRow(row.Domains,
			metrics.Seconds(row.Baseline.ResponseTime), metrics.Seconds(ov.ResponseTime),
			metrics.Ratio(ov.ResponseTime.Seconds(), row.Baseline.ResponseTime.Seconds()),
			metrics.Megabytes(row.Baseline.Bytes), metrics.Megabytes(ov.Bytes),
			metrics.Ratio(float64(ov.Bytes), float64(row.Baseline.Bytes)),
			row.Baseline.Queries, ov.Queries,
			metrics.Ratio(float64(ov.Queries), float64(row.Baseline.Queries)),
			row.BaselineLeaked, row.RemedyLeaked,
		)
	}
	return t.String()
}

// Fig10 renders the baseline/overhead/total panels of Fig. 10 as series.
func (r *Table5Result) Fig10() []*metrics.Figure {
	mk := func(title, unit string, get func(Table5Row) (base, over float64)) *metrics.Figure {
		b := &metrics.Series{Name: "baseline"}
		o := &metrics.Series{Name: "overhead"}
		tt := &metrics.Series{Name: "total"}
		for _, row := range r.Rows {
			bv, ov := get(row)
			b.Add(float64(row.Domains), bv)
			o.Add(float64(row.Domains), ov)
			tt.Add(float64(row.Domains), bv+ov)
		}
		return &metrics.Figure{Title: title, XLabel: "domains", YLabel: unit,
			Series: []*metrics.Series{b, o, tt}}
	}
	return []*metrics.Figure{
		mk("Fig. 10a — Response time", "seconds", func(row Table5Row) (float64, float64) {
			return row.Baseline.ResponseTime.Seconds(), row.Overhead().ResponseTime.Seconds()
		}),
		mk("Fig. 10b — Traffic volume", "MB", func(row Table5Row) (float64, float64) {
			return float64(row.Baseline.Bytes) / 1e6, float64(row.Overhead().Bytes) / 1e6
		}),
		mk("Fig. 10c — Issued queries", "queries", func(row Table5Row) (float64, float64) {
			return float64(row.Baseline.Queries), float64(row.Overhead().Queries)
		}),
	}
}

// Fig11Result compares DLV, TXT, and Z-bit across the three cost metrics.
type Fig11Result struct {
	Domains int
	DLV     RunCost
	TXT     RunCost
	ZBit    RunCost
	// Leaked Case-2 counts per mode, showing the privacy benefit next to
	// the cost.
	DLVLeaked, TXTLeaked, ZBitLeaked int
}

// Fig11 runs experiment E10: one workload, three modes.
func Fig11(p Params) (*Fig11Result, error) {
	n := p.scaled(1000, 100)
	pop, err := buildPopulation(n, p.Seed)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Domains: n}
	base, err := measureCost(pop, p.Seed, []int{n}, resolver.RemedyNone)
	if err != nil {
		return nil, err
	}
	res.DLV, res.DLVLeaked = base[0].cost, base[0].leaked
	txt, err := measureCost(pop, p.Seed, []int{n}, resolver.RemedyTXT)
	if err != nil {
		return nil, err
	}
	res.TXT, res.TXTLeaked = txt[0].cost, txt[0].leaked
	zb, err := measureCost(pop, p.Seed, []int{n}, resolver.RemedyZBit)
	if err != nil {
		return nil, err
	}
	res.ZBit, res.ZBitLeaked = zb[0].cost, zb[0].leaked
	return res, nil
}

// String renders Fig. 11 as a comparison table.
func (r *Fig11Result) String() string {
	var b strings.Builder
	t := metrics.Table{
		Title:  fmt.Sprintf("Fig. 11 — DLV vs TXT vs Z-bit (%d domains)", r.Domains),
		Header: []string{"mode", "response time (s)", "traffic (MB)", "queries", "case-2 leaked"},
	}
	t.AddRow("dlv", metrics.Seconds(r.DLV.ResponseTime), metrics.Megabytes(r.DLV.Bytes), r.DLV.Queries, r.DLVLeaked)
	t.AddRow("txt", metrics.Seconds(r.TXT.ResponseTime), metrics.Megabytes(r.TXT.Bytes), r.TXT.Queries, r.TXTLeaked)
	t.AddRow("zbit", metrics.Seconds(r.ZBit.ResponseTime), metrics.Megabytes(r.ZBit.Bytes), r.ZBit.Queries, r.ZBitLeaked)
	b.WriteString(t.String())
	return b.String()
}
