package core

import (
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/snapshot"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// BootMode records how an infrastructure cache came to be: warmed live on a
// private shard, or restored from a warm-state snapshot. The serving tier
// reports it (boot_mode) so operators can tell the two apart when comparing
// startup latencies.
type BootMode int

// Boot modes.
const (
	// BootLiveWarm: the cache was built by WarmInfra's resolution walks.
	BootLiveWarm BootMode = iota
	// BootSnapshot: the cache was restored from a snapshot file.
	BootSnapshot
)

// String implements fmt.Stringer.
func (m BootMode) String() string {
	if m == BootSnapshot {
		return "snapshot"
	}
	return "live-warm"
}

// SaveWarmState writes the sealed infrastructure cache plus the universe's
// signed-zone signature state to a snapshot file (atomically).
func SaveWarmState(path string, u *universe.Universe, cfg resolver.Config, ic *resolver.Cache) error {
	return snapshot.Save(path, u, cfg, ic)
}

// LoadWarmState restores a sealed infrastructure cache from a snapshot
// file, refusing stale or mismatched state (see snapshot.Load).
func LoadWarmState(path string, u *universe.Universe, cfg resolver.Config) (*resolver.Cache, error) {
	return snapshot.Load(path, u, cfg)
}

// LoadOrWarm boots warm infrastructure state the safe way: try the snapshot
// when one is configured, fall back to a live warm-up under plan when it is
// absent, stale, corrupt, or mismatched — logging why, never silently
// serving wrong state. A snapshot was warmed against a healthy registry, so
// serve.Build refuses to pair one with a fault plan.
func LoadOrWarm(u *universe.Universe, cfg resolver.Config, plan *faults.Plan, path string, logf func(format string, args ...any)) (*resolver.Cache, BootMode, error) {
	if path != "" {
		ic, err := snapshot.Load(path, u, cfg)
		if err == nil {
			return ic, BootSnapshot, nil
		}
		if logf != nil {
			logf("snapshot %s refused, warming live: %v", path, err)
		}
	}
	ic, err := WarmInfraUnder(u, cfg, plan)
	return ic, BootLiveWarm, err
}
