// Package experiment implements one driver per table and figure of the
// paper's evaluation. Each driver returns a typed result with a String()
// rendering; Registry indexes them (DESIGN.md §4) for cmd/dlvmeasure and
// the test suite.
package experiment

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// Params are the shared experiment knobs.
type Params struct {
	// Seed drives all randomness; experiments are deterministic in it.
	Seed int64
	// Scale divides the paper's workload sizes for laptop-scale runs:
	// 1 reproduces the paper's magnitudes, 100 runs the same sweeps at 1%
	// size. Zero means 100 (the test-friendly default).
	Scale int
	// Workers bounds how many independent measurement points (sweep shards,
	// shuffle trials, configuration scenarios) run concurrently. Every
	// audit runs on its own network shard with its own resolver and
	// capture, so results are identical at any setting; <= 1 is sequential.
	Workers int
}

// scale returns the effective scale divisor.
func (p Params) scale() int {
	if p.Scale <= 0 {
		return 100
	}
	return p.Scale
}

// workers returns the effective fan-out width.
func (p Params) workers() int {
	if p.Workers <= 1 {
		return 1
	}
	return p.Workers
}

// scaled divides a paper-scale workload size, keeping at least min.
func (p Params) scaled(n, min int) int {
	v := n / p.scale()
	if v < min {
		v = min
	}
	return v
}

// sizeLadder is a ladder of paper workload sizes divided by the scale,
// floored at 50, with duplicates dropped.
func (p Params) sizeLadder(paper ...int) []int {
	var sizes []int
	for _, s := range paper {
		n := p.scaled(s, 50)
		if len(sizes) == 0 || n > sizes[len(sizes)-1] {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// buildPopulation generates the Alexa-like population of the given size.
func buildPopulation(size int, seed int64) (*dataset.Population, error) {
	return dataset.AlexaLike(dataset.PopulationConfig{Size: size, Seed: seed})
}

// buildUniverse assembles a universe over a population with optional
// option tweaks.
func buildUniverse(pop *dataset.Population, seed int64, mutate func(*universe.Options)) (*universe.Universe, error) {
	opts := universe.Options{
		Seed:       seed,
		Population: pop,
		Extra:      dataset.SecureDomains(),
	}
	if mutate != nil {
		mutate(&opts)
	}
	return universe.Build(opts)
}

// runAudit runs the workload through a fresh resolver configured by cfg
// and reports. The audit lives on its own network shard — private clock,
// taps, and resolver — so concurrent runAudit calls on a shared universe do
// not interfere, and nothing accumulates on the root shard between calls.
func runAudit(u *universe.Universe, cfg resolver.Config, workload []dataset.Domain) (core.Report, error) {
	auditor, err := newAuditor(u, cfg)
	if err != nil {
		return core.Report{}, err
	}
	if err := auditor.QueryDomains(workload); err != nil {
		return core.Report{}, err
	}
	return auditor.Report(), nil
}

// crawl is the paper's method for a size ladder: one fresh resolver,
// configured by cfg, walks the top domains of pop in order, and at each of
// the ascending sizes the report so far is handed to at. A fresh resolver's
// state after N queries depends only on the first N, so each report is
// what a separate audit of the top N reports.
func crawl(u *universe.Universe, cfg resolver.Config, pop *dataset.Population, sizes []int, at func(i int, rep core.Report)) error {
	auditor, err := newAuditor(u, cfg)
	if err != nil {
		return err
	}
	top := pop.Top(sizes[len(sizes)-1])
	done := 0
	for i, n := range sizes {
		if err := auditor.QueryDomains(top[done:n]); err != nil {
			return fmt.Errorf("crawl at n=%d: %w", n, err)
		}
		done = n
		at(i, auditor.Report())
	}
	return nil
}

// newAuditor attaches an auditor with a fresh resolver, configured by cfg,
// to a shard of its own.
func newAuditor(u *universe.Universe, cfg resolver.Config) (*core.Auditor, error) {
	auditor, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return auditor, nil
}
