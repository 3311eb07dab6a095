package serve

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

// StatsName is the reserved qname of the over-the-wire stats surface: a
// TXT query for it returns the serving-tier Snapshot as key=value strings.
// The name sits under the reserved "invalid." TLD (RFC 2606), which no
// population domain can ever occupy.
var StatsName = dns.MustName("_stats.resolved.invalid")

// Snapshot is the serving-tier scorecard at one instant: resolver-core
// counters (merged across pool instances), authoritative packet-cache
// totals, and the per-transport listener counters.
type Snapshot struct {
	Resolver          resolver.Stats
	PacketCacheHits   uint64
	PacketCacheMisses uint64
	UDP               udptransport.Stats
	TCP               udptransport.Stats
	// UDPShards is the number of SO_REUSEPORT listener shards behind the
	// UDP counters — a startup/config fact, not a window counter: Minus
	// keeps the later value. Baselines measured at different widths must
	// never be compared as if alike.
	UDPShards uint64
	// BootMS is how long the serving tier took to come up (wall
	// milliseconds); BootMode is how its warm state booted (0 live-warm,
	// 1 snapshot — core.BootMode values). Both are startup facts, not
	// window counters: Minus keeps the later value.
	BootMS   uint64
	BootMode uint64
	// Overload is the admission controller's scorecard; all-zero when
	// overload protection is off.
	Overload overload.Stats
}

// field is one integer of the Snapshot as the stats surface sees it.
type field struct {
	// key is the wire name in the TXT answer.
	key string
	// gauge marks an instant, a watermark or a startup fact: Minus keeps the
	// later value. Everything else is a counter and subtracts.
	gauge bool
	// at returns a *int, *int64 or *uint64 into s.
	at func(s *Snapshot) any
}

const (
	counter = false
	gauge   = true
)

// fields is the surface's one enumeration: Minus, the TXT answer and
// ParseSnapshot are loops over it, and the TXT strings go out in this order.
// A new counter is one line here (TestStatsTableCoversSnapshot holds the
// table to the struct).
var fields = []field{
	{"resolutions", counter, func(s *Snapshot) any { return &s.Resolver.Resolutions }},
	{"cache_hits", counter, func(s *Snapshot) any { return &s.Resolver.CacheHits }},
	{"dlv_queries", counter, func(s *Snapshot) any { return &s.Resolver.DLVQueries }},
	{"dlv_suppressed", counter, func(s *Snapshot) any { return &s.Resolver.DLVSuppressed }},
	{"dlv_skipped", counter, func(s *Snapshot) any { return &s.Resolver.DLVSkippedByRemedy }},
	{"dlv_failures", counter, func(s *Snapshot) any { return &s.Resolver.DLVFailures }},
	{"failovers", counter, func(s *Snapshot) any { return &s.Resolver.Failovers }},
	{"retries", counter, func(s *Snapshot) any { return &s.Resolver.Retries }},
	{"tcp_fallbacks", counter, func(s *Snapshot) any { return &s.Resolver.TCPFallbacks }},
	{"deadline_exceeded", counter, func(s *Snapshot) any { return &s.Resolver.DeadlineExceeded }},
	{"breaker_opens", counter, func(s *Snapshot) any { return &s.Resolver.BreakerOpens }},
	{"breaker_skips", counter, func(s *Snapshot) any { return &s.Resolver.BreakerSkips }},
	{"infra_hits", counter, func(s *Snapshot) any { return &s.Resolver.InfraHits }},
	{"infra_misses", counter, func(s *Snapshot) any { return &s.Resolver.InfraMisses }},
	{"pkt_hits", counter, func(s *Snapshot) any { return &s.PacketCacheHits }},
	{"pkt_misses", counter, func(s *Snapshot) any { return &s.PacketCacheMisses }},
	{"udp_queries", counter, func(s *Snapshot) any { return &s.UDP.Queries }},
	{"udp_malformed", counter, func(s *Snapshot) any { return &s.UDP.Malformed }},
	{"udp_responses", counter, func(s *Snapshot) any { return &s.UDP.Responses }},
	{"udp_truncated", counter, func(s *Snapshot) any { return &s.UDP.Truncated }},
	{"udp_servfails", counter, func(s *Snapshot) any { return &s.UDP.ServFails }},
	{"udp_inflight", gauge, func(s *Snapshot) any { return &s.UDP.InFlight }},
	{"udp_max_inflight", gauge, func(s *Snapshot) any { return &s.UDP.MaxInFlight }},
	{"udp_conns", counter, func(s *Snapshot) any { return &s.UDP.Conns }},
	{"udp_shards", gauge, func(s *Snapshot) any { return &s.UDPShards }},
	{"tcp_queries", counter, func(s *Snapshot) any { return &s.TCP.Queries }},
	{"tcp_conns", counter, func(s *Snapshot) any { return &s.TCP.Conns }},
	{"tcp_responses", counter, func(s *Snapshot) any { return &s.TCP.Responses }},
	{"tcp_servfails", counter, func(s *Snapshot) any { return &s.TCP.ServFails }},
	{"tcp_malformed", counter, func(s *Snapshot) any { return &s.TCP.Malformed }},
	{"tcp_truncated", counter, func(s *Snapshot) any { return &s.TCP.Truncated }},
	{"tcp_inflight", gauge, func(s *Snapshot) any { return &s.TCP.InFlight }},
	{"tcp_max_inflight", gauge, func(s *Snapshot) any { return &s.TCP.MaxInFlight }},
	{"boot_ms", gauge, func(s *Snapshot) any { return &s.BootMS }},
	{"boot_mode", gauge, func(s *Snapshot) any { return &s.BootMode }},
	{"ovl_admitted", counter, func(s *Snapshot) any { return &s.Overload.Admitted }},
	{"ovl_rate_limited", counter, func(s *Snapshot) any { return &s.Overload.RateLimited }},
	{"ovl_shed_window", counter, func(s *Snapshot) any { return &s.Overload.ShedWindow }},
	{"ovl_shed_queue", counter, func(s *Snapshot) any { return &s.Overload.ShedQueue }},
	{"ovl_watchdog_trips", counter, func(s *Snapshot) any { return &s.Overload.WatchdogTrips }},
	{"ovl_inflight", gauge, func(s *Snapshot) any { return &s.Overload.InFlight }},
	{"ovl_queued", gauge, func(s *Snapshot) any { return &s.Overload.Queued }},
	{"ovl_qdelay_p50_us", gauge, func(s *Snapshot) any { return &s.Overload.QueueDelayP50us }},
	{"ovl_qdelay_p99_us", gauge, func(s *Snapshot) any { return &s.Overload.QueueDelayP99us }},
	{"ovl_health", gauge, func(s *Snapshot) any { return &s.Overload.Health }},
}

// get reads the field as the unsigned value the wire carries.
func (f field) get(s *Snapshot) uint64 {
	switch p := f.at(s).(type) {
	case *int:
		return uint64(*p)
	case *int64:
		return uint64(*p)
	case *uint64:
		return *p
	default:
		panic(fmt.Sprintf("serve: stats field %q is a %T", f.key, p))
	}
}

// set is get's inverse.
func (f field) set(s *Snapshot, v uint64) {
	switch p := f.at(s).(type) {
	case *int:
		*p = int(v)
	case *int64:
		*p = int64(v)
	case *uint64:
		*p = v
	default:
		panic(fmt.Sprintf("serve: stats field %q is a %T", f.key, p))
	}
}

// Minus subtracts an earlier snapshot field-wise, so a load run can report
// the rates of exactly its own window. Gauges keep the later value.
func (s Snapshot) Minus(o Snapshot) Snapshot {
	for _, f := range fields {
		if !f.gauge {
			f.set(&s, f.get(&s)-f.get(&o))
		}
	}
	return s
}

// PacketCacheHitRate returns the authoritative packet-cache hit ratio, or
// 0 with no lookups.
func (s Snapshot) PacketCacheHitRate() float64 {
	total := s.PacketCacheHits + s.PacketCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.PacketCacheHits) / float64(total)
}

// InfraHitRate returns the shared infrastructure-cache hit ratio, or 0
// with no lookups.
func (s Snapshot) InfraHitRate() float64 {
	total := s.Resolver.InfraHits + s.Resolver.InfraMisses
	if total == 0 {
		return 0
	}
	return float64(s.Resolver.InfraHits) / float64(total)
}

// AnswerCacheHitRate returns the per-resolver answer-cache hit ratio over
// top-level resolutions, or 0 with none.
func (s Snapshot) AnswerCacheHitRate() float64 {
	if s.Resolver.Resolutions == 0 {
		return 0
	}
	return float64(s.Resolver.CacheHits) / float64(s.Resolver.Resolutions)
}

// statsResponse renders a snapshot as one TXT record of key=value strings
// (each well under the 255-octet string limit).
func statsResponse(q *dns.Message, snap Snapshot) *dns.Message {
	strs := make([]string, 0, len(fields))
	for _, f := range fields {
		strs = append(strs, f.key+"="+strconv.FormatUint(f.get(&snap), 10))
	}
	resp := dns.NewResponse(q)
	resp.Header.RCode = dns.RCodeNoError
	resp.Header.AA = true
	resp.Answer = []dns.RR{{
		Name: StatsName, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 0,
		Data: &dns.TXTData{Strings: strs},
	}}
	return resp
}

// ParseSnapshot rebuilds a Snapshot from a stats-surface TXT response;
// unknown keys are ignored so old clients survive new counters.
func ParseSnapshot(resp *dns.Message) (Snapshot, error) {
	var snap Snapshot
	if resp == nil || resp.Header.RCode != dns.RCodeNoError || len(resp.Answer) == 0 {
		return snap, fmt.Errorf("serve: stats response missing answer")
	}
	txt, ok := resp.Answer[0].Data.(*dns.TXTData)
	if !ok {
		return snap, fmt.Errorf("serve: stats answer is %s, not TXT", resp.Answer[0].Type)
	}
	for _, kv := range txt.Strings {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return snap, fmt.Errorf("serve: malformed stats string %q", kv)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return snap, fmt.Errorf("serve: stats string %q: %w", kv, err)
		}
		for _, f := range fields {
			if f.key == key {
				f.set(&snap, v)
				break
			}
		}
	}
	return snap, nil
}

// FetchSnapshot scrapes a live server's stats surface over UDP.
func FetchSnapshot(c *udptransport.Client, server netip.AddrPort) (Snapshot, error) {
	q := dns.NewQuery(0xda7a, StatsName, dns.TypeTXT, false)
	resp, err := c.Query(server, q)
	if err != nil {
		return Snapshot{}, fmt.Errorf("serve: fetching stats: %w", err)
	}
	return ParseSnapshot(resp)
}

// Render formats the snapshot as the serving-tier scorecard table.
func (s Snapshot) Render(title string) string {
	t := metrics.Table{
		Title:  title,
		Header: []string{"counter", "value"},
	}
	mode := "live-warm"
	if s.BootMode == 1 {
		mode = "snapshot"
	}
	t.AddRow("boot", fmt.Sprintf("%dms (%s)", s.BootMS, mode))
	t.AddRow("resolutions", s.Resolver.Resolutions)
	t.AddRow("answer-cache hits", fmt.Sprintf("%d (%s)", s.Resolver.CacheHits, metrics.Percent(s.AnswerCacheHitRate())))
	t.AddRow("packet-cache hits", fmt.Sprintf("%d/%d (%s)", s.PacketCacheHits,
		s.PacketCacheHits+s.PacketCacheMisses, metrics.Percent(s.PacketCacheHitRate())))
	t.AddRow("infra-cache hits", fmt.Sprintf("%d/%d (%s)", s.Resolver.InfraHits,
		s.Resolver.InfraHits+s.Resolver.InfraMisses, metrics.Percent(s.InfraHitRate())))
	t.AddRow("dlv queries", s.Resolver.DLVQueries)
	t.AddRow("dlv suppressed", s.Resolver.DLVSuppressed)
	t.AddRow("dlv failures", s.Resolver.DLVFailures)
	t.AddRow("retries", s.Resolver.Retries)
	t.AddRow("upstream tcp fallbacks", s.Resolver.TCPFallbacks)
	t.AddRow("breaker opens/skips", fmt.Sprintf("%d/%d", s.Resolver.BreakerOpens, s.Resolver.BreakerSkips))
	t.AddRow("udp shards", s.UDPShards)
	t.AddRow("udp queries", s.UDP.Queries)
	t.AddRow("udp truncated (TC)", s.UDP.Truncated)
	t.AddRow("udp servfails", s.UDP.ServFails)
	t.AddRow("udp max in-flight", s.UDP.MaxInFlight)
	t.AddRow("tcp conns", s.TCP.Conns)
	t.AddRow("tcp queries", s.TCP.Queries)
	t.AddRow("tcp malformed/truncated", fmt.Sprintf("%d/%d", s.TCP.Malformed, s.TCP.Truncated))
	if ovl := s.Overload; ovl.Admitted+ovl.Sheds() > 0 {
		t.AddRow("overload admitted", ovl.Admitted)
		t.AddRow("sheds (rate/window/queue)", fmt.Sprintf("%d/%d/%d",
			ovl.RateLimited, ovl.ShedWindow, ovl.ShedQueue))
		t.AddRow("queue delay p50/p99", fmt.Sprintf("%dµs/%dµs",
			ovl.QueueDelayP50us, ovl.QueueDelayP99us))
		t.AddRow("watchdog trips", ovl.WatchdogTrips)
		t.AddRow("health", overload.Health(ovl.Health).String())
	}
	return t.String()
}
