package simnet

import (
	"net/netip"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
)

// Shard is an isolated clock domain layered over a shared Network — the
// only kind of clock domain there is: the network's own (Network.Root) is
// one too. Each shard owns its own logical clock, its own capture taps, and
// a private address overlay (typically just the shard's recursive
// resolver), while exchanges to everything else reach the servers
// registered on the shared network. Because every exchange advances only
// the shard's clock, the latencies and event timeline a shard observes are
// independent of how the Go scheduler interleaves goroutines — each shard's
// results depend only on its own query sequence, which keeps parallel
// audits deterministic.
//
// Shard implements Exchanger, so a resolver can be pointed at a shard
// exactly as it would be pointed at the Network, and it satisfies the
// resolver's Clock interface through Now.
type Shard struct {
	net *Network

	mu    sync.Mutex
	now   time.Duration
	taps  []Tap
	local map[netip.Addr]*serverEntry
	// client is the stub address of the in-flight stub→recursive exchange
	// on this shard, used to attribute the resolver's nested exchanges
	// (Event.Client). Shards are driven sequentially by their audit, so
	// one slot per shard suffices.
	client netip.Addr
	// faults holds this shard's per-link fault-injection state. Strictly
	// shard-private: no other shard's plans (the root's included) are ever
	// consulted here, so each shard replays its own deterministic fault
	// history regardless of worker interleaving.
	faults map[netip.Addr]*faults.State
}

// swapClient installs addr as the shard's attribution client and returns
// the previous one.
func (s *Shard) swapClient(addr netip.Addr) netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.client
	s.client = addr
	return prev
}

// attributedClient resolves Event.Client for an exchange from src.
func (s *Shard) attributedClient(src netip.Addr) netip.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client.IsValid() {
		return s.client
	}
	return src
}

// NewShard creates a shard whose clock starts at the root shard's current
// time. The shard sees every server registered on the network plus any
// servers registered on the shard itself (which shadow same-address global
// registrations for exchanges originating in this shard).
func (n *Network) NewShard() *Shard {
	return &Shard{
		net:   n,
		now:   n.Now(),
		local: make(map[netip.Addr]*serverEntry),
	}
}

// Register places a shard-private server at addr, shadowing any global
// registration at the same address for this shard's exchanges. Sharded
// audits use it to give each worker its own recursive resolver at the
// canonical resolver address.
func (s *Shard) Register(addr netip.Addr, name string, role Role, latency time.Duration, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.local[addr] = &serverEntry{name: name, role: role, latency: latency, handler: h}
}

// AddTap attaches a capture tap to this shard's subsequent exchanges. Shard
// taps run before the global taps (the root shard's) and only see this
// shard's traffic.
func (s *Shard) AddTap(tap Tap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taps = append(s.taps, tap)
}

// ResetTaps removes this shard's capture taps.
func (s *Shard) ResetTaps() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taps = nil
}

// Now returns the shard's current simulation time.
func (s *Shard) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves the shard's clock forward.
func (s *Shard) Advance(d time.Duration) {
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
}

// Exchange sends a query from src to dst through the wire codec, invokes
// the destination handler, and returns the decoded response. It advances
// the shard's clock by the link RTT, applies the shard's fault plan on the
// link, feeds the shard's taps and then the global ones, and maintains the
// network's aggregate counters. It implements Exchanger.
func (s *Shard) Exchange(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	return s.exchange(src, dst, q, false)
}

// lookup resolves dst against the shard overlay first, then the shared
// network.
func (s *Shard) lookup(dst netip.Addr) (*serverEntry, error) {
	s.mu.Lock()
	entry, ok := s.local[dst]
	s.mu.Unlock()
	if ok {
		return entry, nil
	}
	return s.net.lookup(dst)
}

// Network returns the shared network underneath the shard.
func (s *Shard) Network() *Network { return s.net }

var _ Exchanger = (*Shard)(nil)
