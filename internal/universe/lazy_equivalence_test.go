package universe_test

import (
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// TestLazyEagerEquivalence pins the lazy-materialization contract: a
// universe built on the default lazy path (delegations, DS records, pool
// glue, and DLV deposits derived on first query) serves byte-identical wire
// responses to the eager reference build, so a full audit produces an
// identical Report — capture byte counts, leak cases, latencies, resolver
// stats, everything. Variants cover the registry modes with distinct synth
// behavior: plain NSEC (aggressive negative caching over derived spans),
// hashed deposits (derived hash-label owners), NSEC3 denials, and the
// phased-out empty registry (no deposit synth at all).
func TestLazyEagerEquivalence(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*universe.Options)
	}{
		{"plain", nil},
		{"hashed", func(o *universe.Options) { o.RegistryHashed = true }},
		{"nsec3", func(o *universe.Options) { o.RegistryNSEC3 = true }},
		{"empty", func(o *universe.Options) { o.RegistryEmpty = true }},
	}
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	workload := pop.Top(60)

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			build := func(construct func(universe.Options) (*universe.Universe, error)) *universe.Universe {
				opts := universe.Options{
					Seed: 5, Population: pop, Extra: dataset.SecureDomains(),
				}
				if v.mutate != nil {
					v.mutate(&opts)
				}
				u, err := construct(opts)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}
			lazy, eager := build(universe.Build), build(universe.BuildEager)

			if lg, eg := lazy.DomainCount(), eager.DomainCount(); lg != eg {
				t.Errorf("DomainCount: lazy %d, eager %d", lg, eg)
			}
			if lg, eg := lazy.Registry.DepositCount(), eager.Registry.DepositCount(); lg != eg {
				t.Errorf("DepositCount: lazy %d, eager %d", lg, eg)
			}

			audit := func(u *universe.Universe) core.Report {
				cfg := u.ResolverConfig(true, true)
				cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
				a, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
				if err != nil {
					t.Fatal(err)
				}
				if err := a.QueryDomains(workload); err != nil {
					t.Fatal(err)
				}
				return a.Report()
			}
			want, got := audit(eager), audit(lazy)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("lazy report differs from eager:\neager: %+v\nlazy:  %+v", want, got)
			}
		})
	}
}
