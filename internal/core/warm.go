package core

import (
	"fmt"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// WarmInfra pre-resolves the shared infrastructure of a universe on a
// private network shard and returns a sealed resolver.InfraCache: the
// root-to-TLD delegations with their validated outcomes, plus the
// registry path and the registry's validated keys when the configuration
// runs look-aside. Workers handed the sealed cache (via Config.Infra)
// read that state instead of each repeating the identical validation
// walks, while their per-domain answer caches stay private — the
// universe's InfraName filter keeps population state out of the export.
//
// Warming runs in two phases on throwaway resolvers built from cfg with
// Infra cleared (they must resolve for real) but anchors and verification
// cache intact, so the exported outcomes are exactly what each worker
// would have computed. Phase one resolves every TLD's NS with look-aside
// DISABLED: an unsigned TLD would otherwise trigger a look-aside walk on
// the untapped warm shard — registry queries (leakage!) the audit capture
// never sees, and harvested NSEC spans that would suppress worker queries
// and silently shrink the measured leak. Phase two validates the registry
// keys with look-aside enabled; that path only fetches the registry
// DNSKEY, observing no domain. TestWarmInfraSharedAudit pins that audits
// on the warmed cache report leak accounting identical to self-contained
// audits. Individual warm failures are tolerated: a TLD that cannot be
// resolved (fault injection) simply stays out of the cache and workers
// learn about it the usual way.
func WarmInfra(u *universe.Universe, cfg resolver.Config) (*resolver.InfraCache, error) {
	return WarmInfraUnder(u, cfg, nil)
}

// WarmInfraUnder is WarmInfra with a fault plan installed on the warm
// shard's registry link before anything resolves. A fleet warmed while
// the registry is degraded must not come up knowing NSEC spans it could
// never have fetched — that would make an outage invisible. The TLD
// phase never touches the registry, so shared root/TLD state still warms
// fully; the registry phase experiences the faults like any worker would
// and exports only what it actually obtained.
func WarmInfraUnder(u *universe.Universe, cfg resolver.Config, plan *faults.Plan) (*resolver.InfraCache, error) {
	sh := u.NewShard()
	if plan != nil {
		sh.SetFaultPlan(universe.RegistryAddr, *plan)
	}
	tldCfg := cfg
	tldCfg.Infra = nil
	tldCfg.Lookaside = nil
	rt, err := u.StartShardResolver(sh, tldCfg)
	if err != nil {
		return nil, fmt.Errorf("core: starting warm resolver: %w", err)
	}
	for _, label := range u.TLDLabels() {
		name, err := dns.MakeName(label)
		if err != nil {
			continue
		}
		_, _ = rt.Resolve(name, dns.TypeNS)
	}
	ic := resolver.NewInfraCache()
	rt.ExportInfra(ic, u.InfraName)

	if cfg.Lookaside != nil {
		regCfg := cfg
		regCfg.Infra = nil
		rr, err := u.StartShardResolver(sh, regCfg)
		if err != nil {
			return nil, fmt.Errorf("core: starting registry warm resolver: %w", err)
		}
		// An unreachable registry (WarmRegistry error) is tolerated but not
		// exported: the keyless indeterminate outcome it leaves behind is a
		// per-resolver coping mechanism, not shared truth, and exporting it
		// would let workers skip the registry walk a cold fleet would run.
		if err := rr.WarmRegistry(); err == nil {
			rr.ExportInfra(ic, u.InfraName)
		}
	}
	ic.Seal()
	return ic, nil
}
