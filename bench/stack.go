package main

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// Stack shape shared by every serving workload: what cmd/resolved builds
// with -workers 4 -udp-shards 1. One UDP shard is pinned because with at
// most two client sockets SO_REUSEPORT hashing puts both flows on one shard
// or on two at random, which makes runs bimodal.
const (
	serveWorkers = 4
	udpShards    = 1
)

// stormGate is the admission controller serve_storm runs behind.
var stormGate = overload.Config{MaxInFlight: 64, Exec: serveWorkers, QueueTarget: 5 * time.Millisecond}

// stack is the in-process serving tier: population, lazy universe, resolver
// pool, and the real loopback listeners.
type stack struct {
	pop   *dataset.Population
	u     *universe.Universe
	svc   *serve.Service
	gate  *overload.Controller
	udp   *udptransport.Server
	tcp   *udptransport.TCPServer
	names []dns.Name

	udpDone, tcpDone chan error
}

// stackTimes splits one build of the stack by layer.
type stackTimes struct {
	population, universe, serve, listen time.Duration
}

func (t stackTimes) total() time.Duration {
	return t.population + t.universe + t.serve + t.listen
}

// buildStack assembles and starts the serving tier exactly as cmd/resolved
// does. gateCfg nil serves ungated (resolved's default). wrap, when non-nil,
// is placed between the listeners and the service: the traced run's only
// hook into the serving path.
func buildStack(popSize int, seed int64, gateCfg *overload.Config, wrap func(simnet.Handler) simnet.Handler) (*stack, stackTimes, error) {
	var times stackTimes
	s := &stack{}

	t := time.Now()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: popSize, Seed: seed})
	if err != nil {
		return nil, times, fmt.Errorf("population: %w", err)
	}
	s.pop = pop
	times.population = time.Since(t)

	t = time.Now()
	s.u, err = universe.Build(universe.Options{Seed: seed, Population: pop, Extra: dataset.SecureDomains()})
	if err != nil {
		return nil, times, fmt.Errorf("universe: %w", err)
	}
	times.universe = time.Since(t)

	t = time.Now()
	if gateCfg != nil {
		s.gate = overload.New(*gateCfg)
	}
	s.svc, err = serve.Build(s.u, s.u.ResolverConfig(true, true), serve.Options{
		Workers: serveWorkers, SharedInfra: true, Overload: s.gate,
	})
	if err != nil {
		return nil, times, fmt.Errorf("serve.Build: %w", err)
	}
	times.serve = time.Since(t)

	t = time.Now()
	var h simnet.Handler = s.svc
	if wrap != nil {
		h = wrap(h)
	}
	// The UDP port is the kernel's pick and TCP must bind the same number,
	// which now and then is taken (a lingering connection of an earlier
	// stack in this process): pick again rather than fail the run.
	for attempt := 0; ; attempt++ {
		s.udp, err = udptransport.ListenShards("127.0.0.1:0", h, udpShards)
		if err != nil {
			s.svc.Close()
			return nil, times, fmt.Errorf("udp listen: %w", err)
		}
		s.tcp, err = udptransport.ListenTCP(s.udp.AddrPort().String(), h)
		if err == nil {
			break
		}
		_ = s.udp.Close()
		if attempt == 9 {
			s.svc.Close()
			return nil, times, fmt.Errorf("tcp listen: %w", err)
		}
	}
	if s.gate != nil {
		s.udp.SetGate(s.gate)
		s.tcp.SetGate(s.gate)
	} else {
		s.udp.SetWorkers(serveWorkers)
	}
	s.svc.AttachTransports(s.udp, s.tcp)
	s.udpDone = make(chan error, 1)
	s.tcpDone = make(chan error, 1)
	go func() { s.udpDone <- s.udp.Serve() }()
	go func() { s.tcpDone <- s.tcp.Serve() }()
	times.listen = time.Since(t)

	s.names = make([]dns.Name, len(pop.Domains))
	for i := range pop.Domains {
		s.names[i] = pop.Domains[i].Name
	}
	return s, times, nil
}

// close drains both listeners and waits for their Serve goroutines.
func (s *stack) close() error {
	udpErr := s.udp.Shutdown(2 * time.Second)
	tcpErr := s.tcp.Shutdown(2 * time.Second)
	<-s.udpDone
	<-s.tcpDone
	s.svc.Close()
	return errors.Join(udpErr, tcpErr)
}

// serverSpan is one serve.handle span: the time Service.HandleQuery held a
// query, pool-mutex wait included. ID is the DNS message ID, which the
// generator makes unique among queries in flight.
type serverSpan struct {
	id         uint16
	start, end int64 // ns since the run's epoch
}

// spanHandler is the wrapping simnet.Handler of the traced run. Spans go
// into a preallocated slice; past its end they are counted, not kept.
type spanHandler struct {
	next  simnet.Handler
	epoch time.Time
	on    atomic.Bool
	n     atomic.Int64
	spans []serverSpan
}

func newSpanHandler(next simnet.Handler, epoch time.Time, capacity int) *spanHandler {
	return &spanHandler{next: next, epoch: epoch, spans: make([]serverSpan, capacity)}
}

// HandleQuery implements simnet.Handler.
func (h *spanHandler) HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error) {
	if !h.on.Load() {
		return h.next.HandleQuery(q, from)
	}
	start := int64(time.Since(h.epoch))
	resp, err := h.next.HandleQuery(q, from)
	end := int64(time.Since(h.epoch))
	if i := h.n.Add(1) - 1; i < int64(len(h.spans)) {
		h.spans[i] = serverSpan{id: q.Header.ID, start: start, end: end}
	}
	return resp, err
}

// recorded returns the spans kept so far. Call only once the listeners
// have drained.
func (h *spanHandler) recorded() []serverSpan {
	n := h.n.Load()
	if n > int64(len(h.spans)) {
		n = int64(len(h.spans))
	}
	return h.spans[:n]
}
