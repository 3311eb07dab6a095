package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// Layer probes: single-goroutine timed calls into each layer's public
// functions, run after the traced phase on a small universe of their own
// (population 10 000, the run's seed), so a probe reads the same on every
// workload. Each number is the median of probeBatches batches; the batch
// size is logged with it.
const (
	probeBatches    = 11
	probePopulation = 10_000
)

// prober carries the run's -scale, which shrinks batch sizes along with
// everything else (smoke tests only).
type prober struct{ scale float64 }

// batchMedian times probeBatches batches of size calls and returns the
// median batch's ns per call. fn receives the call's index over all batches.
func (p prober) batchMedian(name string, size int, fn func(i int)) float64 {
	size = scaled(size, p.scale)
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < size; i++ {
			fn(b*size + i)
		}
		per[b] = float64(time.Since(start)) / float64(size)
	}
	m := median(per)
	logf("probe %-32s %12.0f ns/call (median of %d batches of %d)", name, m, probeBatches, size)
	return m
}

// runProbes measures every probe metric. pairs are query/response packets
// captured from the workload's sockets; without them (the sweep and the
// storm) the probe resolver's own answers stand in.
func runProbes(cfg runConfig, pairs []packetPair) (map[string]float64, error) {
	v := map[string]float64{}
	p := prober{cfg.scale}
	popSize := scaled(probePopulation, cfg.scale)
	if popSize < 1000 {
		popSize = 1000
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}

	// dataset / universe: what every setup pays first.
	var pop *dataset.Population
	var u *universe.Universe
	var err error
	v["dataset.population_ms"] = p.batchMedian("dataset.AlexaLike", 1, func(int) {
		if err == nil {
			pop, err = dataset.AlexaLike(dataset.PopulationConfig{Size: popSize, Seed: cfg.seed})
		}
	}) / 1e6
	if err != nil {
		return nil, err
	}
	v["universe.build_ms"] = p.batchMedian("universe.Build", 1, func(int) {
		if err == nil {
			u, err = universe.Build(universe.Options{Seed: cfg.seed, Population: pop, Extra: dataset.SecureDomains()})
		}
	}) / 1e6
	if err != nil {
		return nil, err
	}
	rcfg := u.ResolverConfig(true, true)
	rcfg.VerifyCache = dnssec.NewVerifyCache()

	// core / snapshot: the warm state serve.Build and the sweep boot from.
	var ic *resolver.InfraCache
	v["core.warm_ms"] = p.batchMedian("core.WarmInfra", 1, func(int) {
		if err == nil {
			ic, err = core.WarmInfra(u, rcfg)
		}
	}) / 1e6
	if err != nil {
		return nil, fmt.Errorf("core.WarmInfra: %w", err)
	}
	snapPath := filepath.Join(cfg.outDir, "probe.snapshot")
	defer os.Remove(snapPath)
	v["snapshot.save_ms"] = p.batchMedian("core.SaveWarmState", 1, func(int) {
		if err == nil {
			err = core.SaveWarmState(snapPath, u, rcfg, ic)
		}
	}) / 1e6
	if err != nil {
		return nil, fmt.Errorf("core.SaveWarmState: %w", err)
	}
	v["snapshot.load_ms"] = p.batchMedian("core.LoadWarmState", 1, func(int) {
		if err == nil {
			_, err = core.LoadWarmState(snapPath, u, rcfg)
		}
	}) / 1e6
	if err != nil {
		return nil, fmt.Errorf("core.LoadWarmState: %w", err)
	}
	rcfg.Infra = ic

	// universe: what the first touch of an SLD costs over the second.
	if v["universe.sld_materialize_us"], err = probeMaterialize(u, pop); err != nil {
		return nil, err
	}

	// resolver: one fresh resolution against one served from the answer
	// cache, on a resolver configured as a serving-pool instance is. The
	// events it causes feed the capture probe.
	r, err := u.StartResolver(rcfg)
	if err != nil {
		return nil, err
	}
	const resolveBatch = 32
	var events []simnet.Event
	u.Net.AddTap(func(ev simnet.Event) {
		if len(events) < 4096 {
			events = append(events, ev)
		}
	})
	name := func(i int) dns.Name { return pop.Domains[(i*7+100)%len(pop.Domains)].Name }
	resolve := func(i int) {
		if err != nil {
			return
		}
		var res *resolver.Result
		if res, err = r.Resolve(name(i), dns.TypeA); err == nil && res.RCode == dns.RCodeServFail {
			err = fmt.Errorf("probe resolution of %s answered SERVFAIL", name(i))
		}
	}
	v["resolver.resolve_miss_us"] = p.batchMedian("Resolver.Resolve fresh", resolveBatch, resolve) / 1e3
	v["resolver.resolve_hit_us"] = p.batchMedian("Resolver.Resolve repeat", resolveBatch, resolve) / 1e3
	u.Net.ResetTaps()
	if err != nil {
		return nil, err
	}

	// dns: the codec, on the workload's own packets where it has sockets.
	if len(pairs) == 0 {
		qb := newQuerier()
		for i := 0; i < 128; i++ {
			q, err := dns.DecodeMessage(qb.wire(uint16(i), name(i)))
			if err != nil {
				return nil, err
			}
			resp, err := r.HandleQuery(q, universe.StubAddr)
			if err != nil {
				return nil, err
			}
			wire, err := resp.Encode()
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, packetPair{query: append([]byte(nil), qb.buf...), response: wire})
		}
	}
	if err := p.codec(v, pairs); err != nil {
		return nil, err
	}

	// capture: the analyzer tap every audited exchange passes through.
	an := capture.NewAnalyzer(capture.Config{RegistryZone: u.RegistryZone, Deposits: u.Registry})
	v["capture.tap_ns"] = p.batchMedian("Analyzer.Tap", 2000, func(i int) { an.Tap(events[i%len(events)]) })

	// simnet + authserver: one exchange to the root (packet-cache hit), then
	// the authoritative server alone, hit and miss.
	rootQ := dns.NewQuery(1, dns.MustName("com"), dns.TypeNS, true)
	v["simnet.exchange_ns"] = p.batchMedian("Network.Exchange", 2000, func(int) {
		if err == nil {
			_, err = u.Net.Exchange(universe.StubAddr, universe.RootAddr, rootQ)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("Network.Exchange: %w", err)
	}
	var root *zone.Zone
	for _, z := range u.InfraZones() {
		if z.Apex().IsRoot() {
			root = z
		}
	}
	if root == nil {
		return nil, errors.New("universe has no root zone")
	}
	auth, err := authserver.New(authserver.Config{Name: "probe"}, root)
	if err != nil {
		return nil, err
	}
	wbuf := make([]byte, 0, 4096)
	v["authserver.hit_ns"] = p.batchMedian("HandleQueryWire hit", 2000, func(int) {
		if err == nil {
			_, _, err = auth.HandleQueryWire(rootQ, universe.StubAddr, wbuf[:0])
		}
	})
	v["authserver.miss_ns"] = p.batchMedian("HandleQueryWire miss", 500, func(int) {
		if err == nil {
			auth.Cache().Invalidate()
			_, _, err = auth.HandleQueryWire(rootQ, universe.StubAddr, wbuf[:0])
		}
	})
	if err != nil {
		return nil, fmt.Errorf("HandleQueryWire: %w", err)
	}

	if err := p.dnssec(v, cfg.seed); err != nil {
		return nil, err
	}

	// core: one audited domain, resolver plus capture, on a cold auditor.
	// NewAuditor replaces the probe resolver and taps the network, so it
	// goes last.
	auditor, err := core.NewAuditor(u, core.Options{Resolver: rcfg})
	if err != nil {
		return nil, err
	}
	v["core.audit_domain_us"] = p.batchMedian("Auditor.QueryDomain", resolveBatch, func(i int) {
		if err == nil {
			err = auditor.QueryDomain(name(i + 2*probeBatches*resolveBatch))
		}
	}) / 1e3
	u.Net.ResetTaps()
	if err != nil {
		return nil, fmt.Errorf("Auditor.QueryDomain: %w", err)
	}

	if err := p.transport(v, pairs[0].query); err != nil {
		return nil, err
	}
	return v, nil
}

// probeMaterialize asks an SLD's hosting server for a name it has never
// served, twice: the first answer builds and signs the zone, the second is
// a packet-cache hit. The difference is the lazy universe's first-touch
// cost.
func probeMaterialize(u *universe.Universe, pop *dataset.Population) (float64, error) {
	firstNs := make([]float64, 0, 64)
	for i := 0; len(firstNs) < cap(firstNs) && i < len(pop.Domains); i++ {
		d := pop.Domains[len(pop.Domains)-1-i] // the unpopular end: nothing else probes it
		tldAddr, ok := u.TLDAddr(d.Name.Parent().FirstLabel())
		if !ok {
			continue
		}
		q := dns.NewQuery(uint16(i), d.Name, dns.TypeA, true)
		referral, err := u.Net.Exchange(universe.StubAddr, tldAddr, q)
		if err != nil {
			return 0, fmt.Errorf("referral for %s: %w", d.Name, err)
		}
		var host netip.Addr
		for _, rr := range referral.Additional {
			if a, ok := rr.Data.(*dns.AData); ok {
				host = a.Addr
				break
			}
		}
		if !host.IsValid() {
			continue
		}
		before := u.CachedSLDZones()
		t0 := time.Now()
		if _, err := u.Net.Exchange(universe.StubAddr, host, q); err != nil {
			return 0, fmt.Errorf("first exchange to %s: %w", d.Name, err)
		}
		t1 := time.Now()
		if _, err := u.Net.Exchange(universe.StubAddr, host, q); err != nil {
			return 0, fmt.Errorf("second exchange to %s: %w", d.Name, err)
		}
		t2 := time.Now()
		if u.CachedSLDZones() == before {
			continue // already materialized: not a first touch
		}
		firstNs = append(firstNs, float64(t1.Sub(t0)-t2.Sub(t1)))
	}
	if len(firstNs) < probeBatches {
		return 0, fmt.Errorf("only %d first-touch SLD exchanges could be probed", len(firstNs))
	}
	m := median(firstNs)
	logf("probe %-32s %12.0f ns/call (median of %d first-minus-second exchanges)", "SLD first touch", m, len(firstNs))
	return m / 1e3, nil
}

func (p prober) codec(v map[string]float64, pairs []packetPair) error {
	var err error
	decode := func(pick func(packetPair) []byte) func(int) {
		return func(i int) {
			if _, e := dns.DecodeMessage(pick(pairs[i%len(pairs)])); e != nil {
				err = e
			}
		}
	}
	v["dns.decode_query_ns"] = p.batchMedian("DecodeMessage query", 2000, decode(func(pp packetPair) []byte { return pp.query }))
	before := readRuntime().allocs
	v["dns.decode_response_ns"] = p.batchMedian("DecodeMessage response", 2000, decode(func(pp packetPair) []byte { return pp.response }))
	v["dns.allocs_per_decode"] = float64(readRuntime().allocs-before) / float64(probeBatches*scaled(2000, p.scale))
	if err != nil {
		return fmt.Errorf("decoding a captured packet: %w", err)
	}
	msgs := make([]*dns.Message, len(pairs))
	for i, p := range pairs {
		if msgs[i], err = dns.DecodeMessage(p.response); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 4096)
	v["dns.encode_response_ns"] = p.batchMedian("AppendEncode response", 2000, func(i int) {
		if _, e := msgs[i%len(msgs)].AppendEncode(buf[:0]); e != nil {
			err = e
		}
	})
	return err
}

func (p prober) dnssec(v map[string]float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	key, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, 256, rng)
	if err != nil {
		return err
	}
	owner := dns.MustName("probe.example")
	rrset := make([]dns.RR, 2)
	for i := range rrset {
		rrset[i] = dns.RR{Name: owner, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
			Data: &dns.AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)})}}
	}
	var sig dns.RR
	v["dnssec.sign_ns"] = p.batchMedian("SignRRSet", 2000, func(int) {
		if err == nil {
			sig, err = dnssec.SignRRSet(key, owner.Parent(), rrset, 0, 1<<31, rng)
		}
	})
	if err != nil {
		return fmt.Errorf("SignRRSet: %w", err)
	}
	pub := key.Public()
	v["dnssec.verify_ns"] = p.batchMedian("VerifyRRSet", 2000, func(int) {
		if err == nil {
			err = dnssec.VerifyRRSet(pub, sig, rrset, 0)
		}
	})
	vc := dnssec.NewVerifyCache()
	v["dnssec.verify_cached_ns"] = p.batchMedian("VerifyCache.VerifyRRSet", 2000, func(int) {
		if err == nil {
			err = vc.VerifyRRSet(pub, sig, rrset, 0)
		}
	})
	if err != nil {
		return fmt.Errorf("VerifyRRSet: %w", err)
	}
	return nil
}

// transport measures the listeners with nothing behind them: a
// constant handler, one socket, one query at a time. The UDP and TCP round
// trips are the floor under every serving latency; the same ping-pong
// against a gate that sheds everything is the cost of a REFUSED.
func (p prober) transport(v map[string]float64, query []byte) error {
	constant := simnet.HandlerFunc(func(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
		return dns.NewResponse(q), nil
	})
	var rbuf [4096]byte

	pingUDP := func(name string, gate *overload.Controller, want dns.RCode) (float64, error) {
		srv, err := udptransport.Listen("127.0.0.1:0", constant)
		if err != nil {
			return 0, err
		}
		if gate != nil {
			srv.SetGate(gate)
		} else {
			srv.SetWorkers(serveWorkers) // the hand-off to the pool is part of the floor
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		defer func() {
			_ = srv.Shutdown(time.Second)
			<-done
		}()
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(srv.AddrPort()))
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		exchange := func() (rcode dns.RCode, err error) {
			_ = conn.SetDeadline(time.Now().Add(queryTimeout))
			if _, err := conn.Write(query); err != nil {
				return 0, err
			}
			n, err := conn.Read(rbuf[:])
			if err != nil {
				return 0, err
			}
			if n < 12 {
				return 0, fmt.Errorf("%d-byte answer", n)
			}
			return dns.RCode(rbuf[3] & 0x0f), nil
		}
		for i := 0; i < 64; i++ { // spends the limiter's burst before timing
			if _, err := exchange(); err != nil {
				return 0, err
			}
		}
		ping := func(int) {
			if err != nil {
				return
			}
			var rcode dns.RCode
			if rcode, err = exchange(); err == nil && rcode != want {
				err = fmt.Errorf("answered %s, want %s", rcode, want)
			}
		}
		rtt := p.batchMedian(name, 1000, ping)
		return rtt, err
	}

	var err error
	if v["udptransport.floor_rtt_us"], err = pingUDP("UDP floor round trip", nil, dns.RCodeNoError); err != nil {
		return fmt.Errorf("udp floor: %w", err)
	}
	v["udptransport.floor_rtt_us"] /= 1e3

	// A gate whose per-client limiter refills once a minute sheds every
	// query in the read loop with the pre-encoded REFUSED.
	shedAll := overload.New(overload.Config{MaxInFlight: 64, Exec: serveWorkers, ClientQPS: 1.0 / 60, ClientBurst: 1})
	defer shedAll.Close()
	if v["overload.shed_rtt_us"], err = pingUDP("shed (REFUSED) round trip", shedAll, dns.RCodeRefused); err != nil {
		return fmt.Errorf("shed round trip: %w", err)
	}
	v["overload.shed_rtt_us"] /= 1e3

	gate := overload.New(stormGate)
	defer gate.Close()
	src := netip.MustParseAddr("127.0.0.1")
	v["overload.admit_ns"] = p.batchMedian("AdmitFast+Acquire+Release", 2000, func(int) {
		if gate.AdmitFast(query, src) == overload.Admitted && gate.Acquire() {
			gate.Release()
		}
	})

	tcp, err := udptransport.ListenTCP("127.0.0.1:0", constant)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- tcp.Serve() }()
	defer func() {
		_ = tcp.Shutdown(time.Second)
		<-done
	}()
	conn, err := net.Dial("tcp", tcp.AddrPort().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	frame := binary.BigEndian.AppendUint16(nil, uint16(len(query)))
	frame = append(frame, query...)
	v["udptransport.tcp_floor_rtt_us"] = p.batchMedian("TCP floor round trip", 1000, func(int) {
		if err != nil {
			return
		}
		_ = conn.SetDeadline(time.Now().Add(queryTimeout))
		if _, err = conn.Write(frame); err != nil {
			return
		}
		if _, err = io.ReadFull(conn, rbuf[:2]); err != nil {
			return
		}
		_, err = io.ReadFull(conn, rbuf[:binary.BigEndian.Uint16(rbuf[:2])])
	}) / 1e3
	if err != nil {
		return fmt.Errorf("tcp floor: %w", err)
	}
	return nil
}
