package serve

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// buildUniverse builds the seed-1 test universe over size ranked domains.
func buildUniverse(t *testing.T, size int) (*dataset.Population, *universe.Universe) {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: size, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: 1, Population: pop, Extra: dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop, u
}

func buildService(t *testing.T, opts Options) (*universe.Universe, *Service) {
	t.Helper()
	_, u := buildUniverse(t, 300)
	opts.SharedInfra = true
	svc, err := Build(u, u.ResolverConfig(true, true), opts)
	if err != nil {
		t.Fatal(err)
	}
	return u, svc
}

// TestServiceResolvesAndCounts resolves through the pool at several widths.
// One worker (0 means 1) is the same stack as any other width: it shares
// the warmed infra cache, saves it as a snapshot and boots from one.
func TestServiceResolvesAndCounts(t *testing.T) {
	snapFile := filepath.Join(t.TempDir(), "warm.snap")
	for _, tc := range []struct {
		opts     Options
		bootMode core.BootMode
	}{
		{Options{Workers: 2}, core.BootLiveWarm},
		{Options{Workers: 1, SnapshotSave: snapFile}, core.BootLiveWarm},
		{Options{Workers: 1, SnapshotLoad: snapFile}, core.BootSnapshot},
		{Options{Workers: 0}, core.BootLiveWarm},
	} {
		_, svc := buildService(t, tc.opts)
		if svc.BootMode() != tc.bootMode {
			t.Fatalf("%+v: boot mode %s, want %s", tc.opts, svc.BootMode(), tc.bootMode)
		}
		for i, d := range []string{"secure00.edu", "secure01.net", "secure00.edu"} {
			q := dns.NewQuery(uint16(i+1), dns.MustName(d), dns.TypeA, true)
			resp, err := svc.HandleQuery(q, universe.StubAddr)
			if err != nil {
				t.Fatalf("%+v: query %s: %v", tc.opts, d, err)
			}
			if resp.Header.RCode != dns.RCodeNoError {
				t.Fatalf("%+v: query %s: rcode %s", tc.opts, d, resp.Header.RCode)
			}
		}
		st := svc.ResolverStats()
		if st.Resolutions != 3 {
			t.Fatalf("%+v: resolutions = %d", tc.opts, st.Resolutions)
		}
		if st.InfraHits == 0 {
			t.Errorf("%+v: shared-infra service recorded no infra-cache hits", tc.opts)
		}
	}
}

// TestSnapshotLoadRefusedUnderFaultPlan pins that Build refuses a snapshot
// boot under a fault plan, even from a valid snapshot: the snapshot was
// warmed against a healthy registry, and a fleet booting into an outage
// must warm through it.
func TestSnapshotLoadRefusedUnderFaultPlan(t *testing.T) {
	snapFile := filepath.Join(t.TempDir(), "warm.snap")
	buildService(t, Options{Workers: 1, SnapshotSave: snapFile})
	_, u := buildUniverse(t, 300)
	var logs []string
	svc, err := Build(u, u.ResolverConfig(true, true), Options{
		Workers: 1, SharedInfra: true, SnapshotLoad: snapFile,
		Plan: &faults.Plan{Seed: 1, Outages: []faults.Window{{Start: 0, End: 1 << 62}}},
		Log:  func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err == nil || !strings.Contains(err.Error(), "fault plan") {
		t.Fatalf("Build = (%v, %v), want the fault-plan refusal", svc, err)
	}
	if len(logs) != 0 {
		t.Errorf("the refusal fell through to the boot path, which logged %q", logs)
	}
}

// TestRegistryViewByWorkers replays one seeded stub-question list — what a
// shard auditor over a warmed infra cache asks for the top 400 of 2,000
// domains, twice — through the serving tier at 1, 2 and 4 workers and
// compares what the registry is shown with what the simulation path showed
// it. Every width must agree exactly, query for query: the instances share
// one cache, so a span one of them harvested suppresses the others' walks,
// and the cache's process clock replays one resolver's timeline.
func TestRegistryViewByWorkers(t *testing.T) {
	registryTap := func(view *[]string) simnet.Tap {
		return func(ev simnet.Event) {
			if ev.DstRole == simnet.RoleDLV {
				*view = append(*view, fmt.Sprintf("%s %s %s", ev.Question.Name, ev.Question.Type, ev.RCode))
			}
		}
	}

	pop, u := buildUniverse(t, 2000)
	cfg := u.ResolverConfig(true, true)
	ic, err := core.WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Infra = ic
	a, err := core.NewShardAuditor(u, core.Options{Resolver: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var stub []dns.Question
	var want []string
	a.Shard().AddTap(registryTap(&want))
	a.Shard().AddTap(func(ev simnet.Event) {
		if ev.Dst == universe.ResolverAddr {
			stub = append(stub, ev.Question)
		}
	})
	for pass := 0; pass < 2; pass++ {
		if err := a.QueryDomains(pop.Top(400)); err != nil {
			t.Fatal(err)
		}
	}
	if len(stub) < 800 || len(want) == 0 {
		t.Fatalf("simulation path asked %d stub questions and showed the registry %d queries", len(stub), len(want))
	}
	// The infrastructure-cache accounting is pinned too: every path reads
	// the same sealed cache the same number of times.
	const wantInfraHits, wantInfraMisses = 3658, 902
	infra := func(st resolver.Stats) [2]int { return [2]int{st.InfraHits, st.InfraMisses} }
	simInfra := infra(a.Resolver().Stats())
	if simInfra != [2]int{wantInfraHits, wantInfraMisses} {
		t.Errorf("simulation path infra hits/misses = %d/%d, want %d/%d",
			simInfra[0], simInfra[1], wantInfraHits, wantInfraMisses)
	}

	for _, workers := range []int{1, 2, 4} {
		_, u := buildUniverse(t, 2000)
		svc, err := Build(u, u.ResolverConfig(true, true), Options{Workers: workers, SharedInfra: true})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		u.Net.AddTap(registryTap(&got)) // after Build: the warm-up is not part of either view
		for i, q := range stub {
			if _, err := svc.HandleQuery(dns.NewQuery(uint16(i+1), q.Name, q.Type, true), universe.StubAddr); err != nil {
				t.Fatalf("workers=%d: %s/%s: %v", workers, q.Name, q.Type, err)
			}
		}
		t.Logf("workers=%d: registry saw %d queries for %d stub questions (simulation path: %d)",
			workers, len(got), len(stub), len(want))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d showed the registry\n%q\nthe simulation path showed it\n%q", workers, got, want)
		}
		if got := infra(svc.ResolverStats()); got != simInfra {
			t.Errorf("workers=%d infra hits/misses = %d/%d, simulation path %d/%d",
				workers, got[0], got[1], simInfra[0], simInfra[1])
		}
	}
}

func TestStatsSurfaceOverWire(t *testing.T) {
	_, svc := buildService(t, Options{Workers: 2})
	// Resolve something so the counters are non-zero.
	q := dns.NewQuery(1, dns.MustName("secure00.edu"), dns.TypeA, true)
	if _, err := svc.HandleQuery(q, universe.StubAddr); err != nil {
		t.Fatal(err)
	}

	srv, tcpSrv, err := udptransport.ListenPair("127.0.0.1:0", svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer srv.Close()
	go func() { _ = tcpSrv.Serve() }()
	defer tcpSrv.Close()
	svc.AttachTransports(srv, tcpSrv)

	c := &udptransport.Client{Timeout: 2 * time.Second}
	snap, err := FetchSnapshot(c, srv.AddrPort())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Resolver.Resolutions != 1 {
		t.Errorf("scraped resolutions = %d", snap.Resolver.Resolutions)
	}
	if snap.Resolver.InfraHits == 0 {
		t.Error("scraped snapshot lost infra hits")
	}
	// The stats query itself crossed the UDP listener.
	if snap.UDP.Queries == 0 {
		t.Error("scraped snapshot has no UDP transport counters")
	}
	if snap.UDPShards != 1 {
		t.Errorf("udp_shards = %d, want 1 for a single-socket listener", snap.UDPShards)
	}
	// A stats query must not count as a resolution.
	snap2, err := FetchSnapshot(c, srv.AddrPort())
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Resolver.Resolutions != 1 {
		t.Errorf("stats scrape incremented resolutions: %d", snap2.Resolver.Resolutions)
	}
	if snap2.UDP.Queries <= snap.UDP.Queries {
		t.Errorf("udp counter did not advance: %d -> %d", snap.UDP.Queries, snap2.UDP.Queries)
	}
}

func TestSnapshotTXTRoundTrip(t *testing.T) {
	// Distinct values in every field so a swapped key would show.
	want := Snapshot{
		Resolver: resolver.Stats{
			Resolutions: 1, DLVQueries: 2, DLVSuppressed: 3, DLVSkippedByRemedy: 4,
			DLVFailures: 5, Failovers: 6, CacheHits: 7, Retries: 8, TCPFallbacks: 9,
			DeadlineExceeded: 10, BreakerSkips: 11, BreakerOpens: 12,
			InfraHits: 13, InfraMisses: 14,
		},
		PacketCacheHits:   15,
		PacketCacheMisses: 16,
		UDP: udptransport.Stats{Queries: 17, Malformed: 18, Responses: 19,
			Truncated: 20, ServFails: 21, InFlight: 22, MaxInFlight: 23, Conns: 38},
		TCP: udptransport.Stats{Queries: 24, Responses: 25, ServFails: 26, Conns: 27,
			Malformed: 39, Truncated: 40, InFlight: 41, MaxInFlight: 42},
		UDPShards: 37,
		Overload: overload.Stats{Admitted: 28, RateLimited: 29, ShedWindow: 30,
			ShedQueue: 31, WatchdogTrips: 32, InFlight: 33, Queued: 34,
			QueueDelayP50us: 35, QueueDelayP99us: 36, Health: 2},
	}
	q := dns.NewQuery(9, StatsName, dns.TypeTXT, false)
	got, err := ParseSnapshot(statsResponse(q, want))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotMinus(t *testing.T) {
	later := Snapshot{
		Resolver:        resolver.Stats{Resolutions: 10, CacheHits: 6, InfraHits: 4, InfraMisses: 4},
		PacketCacheHits: 20, PacketCacheMisses: 10,
		UDP:      udptransport.Stats{Queries: 30, MaxInFlight: 5},
		Overload: overload.Stats{Admitted: 40, ShedQueue: 8, QueueDelayP99us: 900, Health: 1},
	}
	earlier := Snapshot{
		Resolver:        resolver.Stats{Resolutions: 4, CacheHits: 2, InfraHits: 2, InfraMisses: 2},
		PacketCacheHits: 5, PacketCacheMisses: 5,
		UDP:      udptransport.Stats{Queries: 10, MaxInFlight: 3},
		Overload: overload.Stats{Admitted: 10, ShedQueue: 3, QueueDelayP99us: 200, Health: 2},
	}
	d := later.Minus(earlier)
	if d.Resolver.Resolutions != 6 || d.PacketCacheHits != 15 || d.UDP.Queries != 20 {
		t.Fatalf("delta = %+v", d)
	}
	if d.UDP.MaxInFlight != 5 {
		t.Errorf("watermark should keep the later value, got %d", d.UDP.MaxInFlight)
	}
	if rate := d.PacketCacheHitRate(); rate < 0.74 || rate > 0.76 {
		t.Errorf("hit rate = %f", rate)
	}
	if rate := d.InfraHitRate(); rate != 0.5 {
		t.Errorf("infra rate = %f", rate)
	}
	if rate := d.AnswerCacheHitRate(); rate < 0.66 || rate > 0.67 {
		t.Errorf("answer rate = %f", rate)
	}
	if d.Overload.Admitted != 30 || d.Overload.ShedQueue != 5 {
		t.Errorf("overload counters not subtracted: %+v", d.Overload)
	}
	if d.Overload.QueueDelayP99us != 900 || d.Overload.Health != 1 {
		t.Errorf("overload instants should keep the later value: %+v", d.Overload)
	}

	// Every field, from the table: counters subtract, gauges keep the later
	// value.
	later, earlier = Snapshot{}, Snapshot{}
	for i, f := range fields {
		f.set(&later, uint64(1000+3*i))
		f.set(&earlier, uint64(1+i))
	}
	d = later.Minus(earlier)
	for i, f := range fields {
		want := uint64(1000 + 3*i)
		if !f.gauge {
			want -= uint64(1 + i)
		}
		if got := f.get(&d); got != want {
			t.Errorf("field %d (%q, gauge=%t) = %d after Minus, want %d", i, f.key, f.gauge, got, want)
		}
	}
}

// TestStatsTableCoversSnapshot holds the fields table to the struct: every
// integer leaf of Snapshot is returned by exactly one line, and every line
// has its own wire key, so nothing Minus subtracts is kept off the wire.
func TestStatsTableCoversSnapshot(t *testing.T) {
	var s Snapshot
	leaves := make(map[uintptr]string)
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Int, reflect.Int64, reflect.Uint64:
			leaves[v.Addr().Pointer()] = path[1:]
		default:
			t.Errorf("%s is a %s; the table carries only int, int64 and uint64", path[1:], v.Kind())
		}
	}
	walk(reflect.ValueOf(&s).Elem(), "")

	lines := make(map[string]int)
	keys := make(map[string]bool)
	for i, f := range fields {
		path, ok := leaves[reflect.ValueOf(f.at(&s)).Pointer()]
		if !ok {
			t.Errorf("line %d (%q) does not point into Snapshot", i, f.key)
			continue
		}
		lines[path]++
		switch {
		case f.key == "":
			t.Errorf("Snapshot.%s has no wire key", path)
		case keys[f.key]:
			t.Errorf("wire key %q appears twice", f.key)
		}
		keys[f.key] = true
	}
	for _, path := range leaves {
		if lines[path] != 1 {
			t.Errorf("Snapshot.%s is returned by %d table lines, want 1", path, lines[path])
		}
	}

	// An empty key reaches no field.
	q := dns.NewQuery(9, StatsName, dns.TypeTXT, false)
	resp := statsResponse(q, Snapshot{})
	resp.Answer[0].Data = &dns.TXTData{Strings: []string{"=5"}}
	if got, err := ParseSnapshot(resp); err != nil || got != (Snapshot{}) {
		t.Errorf("empty key parsed to (%+v, %v)", got, err)
	}
}

// TestStatsWireGolden pins the TXT answer byte for byte: the strings for
// TestSnapshotTXTRoundTrip's snapshot, one per table line in table order —
// 45 keys, every integer of the Snapshot.
func TestStatsWireGolden(t *testing.T) {
	snap := Snapshot{
		Resolver: resolver.Stats{
			Resolutions: 1, DLVQueries: 2, DLVSuppressed: 3, DLVSkippedByRemedy: 4,
			DLVFailures: 5, Failovers: 6, CacheHits: 7, Retries: 8, TCPFallbacks: 9,
			DeadlineExceeded: 10, BreakerSkips: 11, BreakerOpens: 12,
			InfraHits: 13, InfraMisses: 14,
		},
		PacketCacheHits:   15,
		PacketCacheMisses: 16,
		UDP: udptransport.Stats{Queries: 17, Malformed: 18, Responses: 19,
			Truncated: 20, ServFails: 21, InFlight: 22, MaxInFlight: 23, Conns: 38},
		TCP: udptransport.Stats{Queries: 24, Responses: 25, ServFails: 26, Conns: 27,
			Malformed: 39, Truncated: 40, InFlight: 41, MaxInFlight: 42},
		UDPShards: 37,
		Overload: overload.Stats{Admitted: 28, RateLimited: 29, ShedWindow: 30,
			ShedQueue: 31, WatchdogTrips: 32, InFlight: 33, Queued: 34,
			QueueDelayP50us: 35, QueueDelayP99us: 36, Health: 2},
	}
	want := []string{
		"resolutions=1", "cache_hits=7", "dlv_queries=2", "dlv_suppressed=3",
		"dlv_skipped=4", "dlv_failures=5", "failovers=6", "retries=8",
		"tcp_fallbacks=9", "deadline_exceeded=10", "breaker_opens=12", "breaker_skips=11",
		"infra_hits=13", "infra_misses=14", "pkt_hits=15", "pkt_misses=16",
		"udp_queries=17", "udp_malformed=18", "udp_responses=19", "udp_truncated=20",
		"udp_servfails=21", "udp_inflight=22", "udp_max_inflight=23", "udp_conns=38",
		"udp_shards=37", "tcp_queries=24", "tcp_conns=27", "tcp_responses=25",
		"tcp_servfails=26", "tcp_malformed=39", "tcp_truncated=40", "tcp_inflight=41",
		"tcp_max_inflight=42", "boot_ms=0", "boot_mode=0", "ovl_admitted=28", "ovl_rate_limited=29",
		"ovl_shed_window=30", "ovl_shed_queue=31", "ovl_watchdog_trips=32", "ovl_inflight=33",
		"ovl_queued=34", "ovl_qdelay_p50_us=35", "ovl_qdelay_p99_us=36", "ovl_health=2",
	}
	q := dns.NewQuery(9, StatsName, dns.TypeTXT, false)
	got := statsResponse(q, snap).Answer[0].Data.(*dns.TXTData).Strings
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TXT strings moved:\n got %q\nwant %q", got, want)
	}
}

// TestStatsWireNameMatchesBypass pins the cross-package contract: the raw
// wire-level bypass check in internal/overload recognizes exactly the query
// FetchSnapshot sends for serve.StatsName. If either side drifts, stats
// scrapes start shedding during storms.
func TestStatsWireNameMatchesBypass(t *testing.T) {
	q := dns.NewQuery(0xda7a, StatsName, dns.TypeTXT, false)
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !overload.IsStatsQuery(wire) {
		t.Fatal("encoded StatsName TXT query not recognized by overload.IsStatsQuery")
	}
}

// TestPoolStatsMonotoneUnderLoad is the stats-vs-serving stress test: many
// goroutines hammer HandleQuery while another repeatedly merges stats, and
// every merged counter must be monotone — the TryLock cache may serve stale
// values but must never let a sum go backwards mid-merge.
func TestPoolStatsMonotoneUnderLoad(t *testing.T) {
	_, svc := buildService(t, Options{Workers: 4})
	names := []string{"secure00.edu", "secure01.net", "secure02.org", "secure03.com"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := dns.NewQuery(uint16(i+1), dns.MustName(names[(g+i)%len(names)]), dns.TypeA, true)
				if _, err := svc.HandleQuery(q, universe.StubAddr); err != nil {
					t.Errorf("worker %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	var prev resolver.Stats
	deadline := time.Now().Add(500 * time.Millisecond)
	for reads := 0; time.Now().Before(deadline); reads++ {
		st := svc.ResolverStats()
		if st.Resolutions < prev.Resolutions || st.CacheHits < prev.CacheHits ||
			st.InfraHits < prev.InfraHits || st.DLVQueries < prev.DLVQueries {
			t.Fatalf("merged counters went backwards on read %d:\n prev %+v\n  now %+v", reads, prev, st)
		}
		prev = st
	}
	close(stop)
	wg.Wait()
	// One final fully-quiescent read still advances past the cached view.
	if st := svc.ResolverStats(); st.Resolutions < prev.Resolutions {
		t.Fatalf("final stats below last observed: %+v < %+v", st, prev)
	}
}

func TestParseSnapshotErrors(t *testing.T) {
	if _, err := ParseSnapshot(nil); err == nil {
		t.Error("nil response accepted")
	}
	q := dns.NewQuery(9, StatsName, dns.TypeTXT, false)
	resp := dns.NewResponse(q)
	resp.Answer = []dns.RR{{Name: StatsName, Type: dns.TypeTXT, Class: dns.ClassIN,
		Data: &dns.TXTData{Strings: []string{"no-equals-sign"}}}}
	if _, err := ParseSnapshot(resp); err == nil {
		t.Error("malformed string accepted")
	}
	resp.Answer[0].Data = &dns.TXTData{Strings: []string{"resolutions=NaN"}}
	if _, err := ParseSnapshot(resp); err == nil {
		t.Error("non-numeric value accepted")
	}
	// Unknown keys are forward-compatible noise, not errors.
	resp.Answer[0].Data = &dns.TXTData{Strings: []string{"future_counter=5"}}
	if _, err := ParseSnapshot(resp); err != nil {
		t.Errorf("unknown key rejected: %v", err)
	}
}
