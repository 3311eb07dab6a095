// Package serve assembles the production serving tier: a pool of resolver
// instances fronted by the real UDP/TCP listeners (cmd/resolved), plus the
// observability surface the trace-replay load generator (cmd/dlvload)
// scrapes — a combined serving-tier Snapshot of resolver, packet-cache,
// infra-cache, and transport counters, exported in-process and over the
// wire as a TXT record on a reserved name.
package serve

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// Options configures the serving tier built over a universe.
type Options struct {
	// Workers is the number of resolver instances serving concurrently
	// (values below 1 mean 1).
	Workers int
	// SharedInfra pre-validates root/TLD/registry state once and shares
	// the sealed cache across instances.
	SharedInfra bool
	// Plan, when non-nil, is installed on the registry link of every
	// shard, including the warm-up shard — a fleet warmed during registry
	// trouble experiences it too.
	Plan *faults.Plan
	// SnapshotLoad, when set, boots the shared infrastructure cache from
	// this warm-state snapshot file instead of a live warm-up. A missing,
	// corrupt, or mismatched snapshot is refused — the reason goes to Log
	// and the fleet warms live. Requires SharedInfra. Build refuses it
	// (never silently ignores it) when Plan is set: a fleet booting into a
	// registry outage must experience it, not restore around it.
	SnapshotLoad string
	// SnapshotSave, when set, writes the warmed (or restored) shared
	// infrastructure cache to this path once the fleet is ready. Requires
	// SharedInfra.
	SnapshotSave string
	// Log receives snapshot fallback/refusal reasons; nil discards them.
	Log func(format string, args ...any)
	// Overload, when non-nil, is the admission controller gating the
	// transports. Build wires its per-instance mutex watchdog into the
	// pool and the Snapshot gains the overload scorecard (sheds, queue
	// percentiles, health). The same controller must be installed on the
	// listeners via SetGate.
	Overload *overload.Controller
}

// Service is the serving tier: a handler for the transport listeners plus
// the merged observability state behind the stats surface.
type Service struct {
	pool *pool

	// bootWall and bootMode record how long Build took to bring the tier
	// to ready and whether warm state came from a live warm-up or a
	// snapshot; both surface in the Snapshot (boot_ms / boot_mode) so the
	// load generator can report startup provenance next to throughput.
	bootWall time.Duration
	bootMode core.BootMode

	// udp/tcp are the attached listeners whose transport counters join
	// the snapshot; set after the listeners bind (atomics: the stats
	// surface reads them from handler goroutines).
	udp atomic.Pointer[udptransport.Server]
	tcp atomic.Pointer[udptransport.TCPServer]

	// ovl is the admission controller (nil when overload protection is
	// off); its scorecard and health state join the Snapshot.
	ovl *overload.Controller
}

// Overload returns the admission controller, or nil when protection is off.
func (s *Service) Overload() *overload.Controller { return s.ovl }

// Close releases background resources (the overload watchdog scan loop).
// It does not touch the listeners — those belong to the caller.
func (s *Service) Close() {
	if s.ovl != nil {
		s.ovl.Close()
	}
}

// BootWall returns how long Build took; BootMode how the warm state booted.
func (s *Service) BootWall() time.Duration { return s.bootWall }
func (s *Service) BootMode() core.BootMode { return s.bootMode }

// Build starts the serving resolvers over the universe: opts.Workers
// resolver instances sharing one resolver.Cache — one set of answer,
// delegation, validation and NSEC span state, so the registry sees one
// resolver at any width — plus one RRSIG verification cache and, with
// SharedInfra, a sealed infrastructure cache warmed once. Each instance
// walks on its own simnet shard with its own clock, query scratch, breaker
// and counters; see pool for how queries reach them.
func Build(u *universe.Universe, cfg resolver.Config, opts Options) (*Service, error) {
	start := time.Now()
	if (opts.SnapshotLoad != "" || opts.SnapshotSave != "") && !opts.SharedInfra {
		return nil, fmt.Errorf("serve: snapshots require shared infra")
	}
	if opts.SnapshotLoad != "" && opts.Plan != nil {
		return nil, fmt.Errorf("serve: refusing snapshot load under a fault plan — the fleet must warm through the outage")
	}
	workers := max(opts.Workers, 1)
	cfg.VerifyCache = dnssec.NewVerifyCache()
	bootMode := core.BootLiveWarm
	if opts.SharedInfra {
		ic, mode, err := core.LoadOrWarm(u, cfg, opts.Plan, opts.SnapshotLoad, opts.Log)
		if err != nil {
			return nil, fmt.Errorf("warming shared infrastructure: %w", err)
		}
		bootMode = mode
		if opts.SnapshotSave != "" {
			if err := core.SaveWarmState(opts.SnapshotSave, u, cfg, ic); err != nil {
				return nil, fmt.Errorf("saving snapshot %s: %w", opts.SnapshotSave, err)
			}
		}
		cfg.Infra = ic
	}
	// Every shard starts at the network's clock, and so does the shared
	// cache's process clock.
	cfg.Cache = resolver.NewCache(cfg.Limits, u.Net.Now())
	p := &pool{
		res:  make([]*resolver.Resolver, workers),
		mus:  make([]sync.Mutex, workers),
		last: make([]resolver.Stats, workers),
	}
	if opts.Overload != nil {
		p.wd = opts.Overload.InitWatchdog(workers)
	}
	for i := range p.res {
		sh := u.NewShard()
		if opts.Plan != nil {
			sh.SetFaultPlan(universe.RegistryAddr, *opts.Plan)
		}
		r, err := u.StartShardResolver(sh, cfg)
		if err != nil {
			return nil, fmt.Errorf("starting shard resolver %d: %w", i, err)
		}
		p.res[i] = r
	}
	return &Service{pool: p, bootWall: time.Since(start), bootMode: bootMode, ovl: opts.Overload}, nil
}

// AttachTransports hands the Service its listeners so transport counters
// join the snapshot; call once the sockets are bound.
func (s *Service) AttachTransports(udp *udptransport.Server, tcp *udptransport.TCPServer) {
	if udp != nil {
		s.udp.Store(udp)
	}
	if tcp != nil {
		s.tcp.Store(tcp)
	}
}

// HandleQuery implements simnet.Handler: TXT queries for StatsName are
// answered from the snapshot (the over-the-wire observability surface);
// everything else goes to the resolver pool.
func (s *Service) HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error) {
	if len(q.Question) == 1 && q.Question[0].Name == StatsName && q.Question[0].Type == dns.TypeTXT {
		return statsResponse(q, s.Snapshot()), nil
	}
	return s.pool.HandleQuery(q, from)
}

// ResolverStats merges the per-instance resolver counters.
func (s *Service) ResolverStats() resolver.Stats { return s.pool.stats() }

// Snapshot assembles the full serving-tier scorecard: merged resolver
// counters, the process-wide authoritative packet-cache totals, and the
// transport counters of the attached listeners.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{
		Resolver: s.pool.stats(),
		BootMS:   uint64(s.bootWall.Milliseconds()),
		BootMode: uint64(s.bootMode),
	}
	snap.PacketCacheHits, snap.PacketCacheMisses = authserver.CacheTotals()
	if udp := s.udp.Load(); udp != nil {
		snap.UDP = udp.Stats()
		snap.UDPShards = uint64(udp.Shards())
	}
	if tcp := s.tcp.Load(); tcp != nil {
		snap.TCP = tcp.Stats()
	}
	if s.ovl != nil {
		// The controller never sees the resolver's counters directly; feed
		// the merged breaker-open total into its health machine here, where
		// both sides meet.
		s.ovl.ObserveBreakerOpens(snap.Resolver.BreakerOpens)
		snap.Overload = s.ovl.Stats()
	}
	return snap
}

// pool fans queries across resolver instances over one shared cache. A
// query the cache answers is served before any instance is taken. A miss
// needs an instance — its shard, clock, scratch and counters are
// single-threaded, so each is guarded by its own mutex — and goes to the
// next one round-robin. Taking the first free instance instead keeps every
// instance walking at once, and with fewer cores than instances the
// walkers then time-slice: on 2 vCPUs the storm workload's p90 rose by a
// quarter.
type pool struct {
	next atomic.Uint64
	res  []*resolver.Resolver
	mus  []sync.Mutex
	// wd, when non-nil, watches per-instance mutex holds (overload
	// protection's stuck-instance detector).
	wd *overload.Watchdog
	// hits counts queries answered from the shared cache without an
	// instance; stats adds them to Resolutions and CacheHits.
	hits atomic.Int64

	// statsMu serializes stats readers; last caches the most recent
	// per-instance counters so a busy instance (mutex held) contributes
	// its last-known values instead of blocking the scrape.
	statsMu sync.Mutex
	last    []resolver.Stats
}

// HandleQuery implements simnet.Handler.
func (p *pool) HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error) {
	if resp, ok := p.res[0].CachedResponse(q); ok {
		p.hits.Add(1)
		return resp, nil
	}
	i := int(p.next.Add(1) % uint64(len(p.res)))
	p.mus[i].Lock()
	if p.wd != nil {
		p.wd.Enter(i)
	}
	defer func() {
		if p.wd != nil {
			p.wd.Exit(i)
		}
		p.mus[i].Unlock()
	}()
	return p.res[i].HandleQuery(q, from)
}

// stats merges the per-instance counters, plus the hits the pool served
// itself, without ever waiting on a busy instance: TryLock refreshes the
// cached counters when the mutex is free, otherwise the instance's
// last-known values stand in. Readers serialize on statsMu, and each cache
// entry and the hit count only ever advance, so merged counters are
// monotone across successive calls — the invariant the stats surface
// promises its scrapers even mid-storm.
func (p *pool) stats() resolver.Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	var st resolver.Stats
	for i, r := range p.res {
		if p.mus[i].TryLock() {
			p.last[i] = r.Stats()
			p.mus[i].Unlock()
		}
		st = st.Plus(p.last[i])
	}
	hits := int(p.hits.Load())
	st.Resolutions += hits
	st.CacheHits += hits
	return st
}
