// Package simnet provides the simulated internet the experiments run on:
// servers registered at IP addresses, a per-link latency model, a logical
// clock, wire-level byte accounting, and packet-capture taps.
//
// Every exchange encodes the query to RFC 1035 wire format, decodes it at
// the server, and does the same for the response, so captured sizes and
// parsing behavior match a real network. The clock is logical: it advances
// by the round-trip time of each exchange, making latency results
// deterministic and reproducible.
package simnet

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// netError is a network-condition error that knows whether it represents a
// transient (retryable) condition; faults.IsTransient classifies through
// the Transient method without either package importing the other.
type netError struct {
	msg       string
	transient bool
}

// Error implements error.
func (e *netError) Error() string { return e.msg }

// Transient reports whether retrying could help (packet loss, timeouts) or
// not (no route, misconfiguration).
func (e *netError) Transient() bool { return e.transient }

// Errors returned by the network. All are classifiable with errors.Is and
// carry retryability for faults.IsTransient.
var (
	ErrNoRoute         error = &netError{"simnet: no server at address", false}
	ErrServerDown      error = &netError{"simnet: server down (timeout)", true}
	ErrPacketLoss      error = &netError{"simnet: packet lost (timeout)", true}
	ErrCorruptResponse error = &netError{"simnet: response corrupted on the wire (timeout)", true}
	ErrOversized       error = &netError{"simnet: response exceeds advertised UDP size", false}
	ErrDuplicateReg    error = &netError{"simnet: address already registered", false}
)

// Role labels what part of the DNS ecosystem a server plays; the threat
// model (involved vs. uninvolved party) is evaluated over roles plus query
// context.
type Role int

// Server roles.
const (
	RoleRoot Role = iota + 1
	RoleTLD
	RoleSLD
	RoleDLV
	RoleRecursive
	RoleStub
	RoleOther
)

var roleNames = map[Role]string{
	RoleRoot:      "root",
	RoleTLD:       "tld",
	RoleSLD:       "sld",
	RoleDLV:       "dlv",
	RoleRecursive: "recursive",
	RoleStub:      "stub",
	RoleOther:     "other",
}

// String implements fmt.Stringer.
func (r Role) String() string {
	if s, ok := roleNames[r]; ok {
		return s
	}
	return "unknown"
}

// Handler processes one decoded DNS query and produces a response.
type Handler interface {
	HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q *dns.Message, from netip.Addr) (*dns.Message, error)

// HandleQuery implements Handler.
func (f HandlerFunc) HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error) {
	return f(q, from)
}

// WireResponder is an optional Handler extension for servers that keep a
// packet cache of encoded responses: HandleQueryWire returns the decoded
// response (caller-owned) together with its wire bytes appended to dst, so
// the exchange path gets the response size without encoding. The wire bytes
// must be exactly what resp.Encode() would produce.
type WireResponder interface {
	Handler
	HandleQueryWire(q *dns.Message, from netip.Addr, dst []byte) (resp *dns.Message, wire []byte, err error)
}

// referencePath switches every exchange to the seed codepath: full encode
// plus decode on both sides, no WireResponder fast path. Equivalence tests
// flip it to pin that the fast path changes no experiment output.
var referencePath atomic.Bool

// SetReferencePath toggles the seed-era exchange path (see referencePath).
func SetReferencePath(on bool) { referencePath.Store(on) }

// wireBufPool recycles per-exchange encode buffers.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// Exchanger is the client-side transport interface the recursive resolver
// uses; Network implements it, as does the real-UDP transport.
type Exchanger interface {
	Exchange(src, dst netip.Addr, q *dns.Message) (*dns.Message, error)
}

// Event is one captured query/response exchange.
type Event struct {
	// Time is the simulation time when the response arrived.
	Time time.Duration
	// Src and Dst address the exchange.
	Src, Dst netip.Addr
	// Client is the stub endpoint on whose behalf the exchange happened:
	// while a stub→recursive exchange is in flight, every nested exchange
	// the resolver issues carries the stub's address here; outside one it
	// equals Src. Taps use it to attribute registry observations to the
	// querying client. The zero value (an invalid Addr) only appears in
	// hand-constructed events and means "unattributed".
	Client netip.Addr
	// DstName and DstRole describe the responding server.
	DstName string
	DstRole Role
	// Question is the first question of the query.
	Question dns.Question
	// QuerySize and RespSize are wire sizes in octets.
	QuerySize, RespSize int
	// RCode is the response code.
	RCode dns.RCode
	// RTT is the simulated round-trip time of this exchange.
	RTT time.Duration
	// ZBit reports the response's reserved Z header bit (the Z-bit remedy).
	ZBit bool
}

// Tap observes captured events. Taps must not block.
type Tap func(ev Event)

type serverEntry struct {
	name    string
	role    Role
	latency time.Duration
	handler Handler
}

// Network is the simulated internet: the registry of shared servers, the
// aggregate traffic counters, and one root Shard — the network's own clock
// domain. Now, Advance, the taps, the fault plans and the exchanges offered
// here are the root shard's; every other shard (NewShard) shares only the
// servers and the counters.
type Network struct {
	mu      sync.Mutex
	servers map[netip.Addr]*serverEntry
	root    *Shard

	// Aggregate statistics, maintained as atomics so concurrent shards do
	// not contend on the network lock.
	totalQueries atomic.Int64
	totalBytes   atomic.Int64
}

// New creates an empty network.
func New() *Network {
	n := &Network{servers: make(map[netip.Addr]*serverEntry)}
	n.root = &Shard{net: n, local: make(map[netip.Addr]*serverEntry)}
	return n
}

// Root returns the network's own clock domain. Its taps are the global
// taps: they also see every other shard's traffic.
func (n *Network) Root() *Shard { return n.root }

// Register places a server at addr with a one-way link latency.
func (n *Network) Register(addr netip.Addr, name string, role Role, latency time.Duration, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.servers[addr]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateReg, addr)
	}
	n.servers[addr] = &serverEntry{name: name, role: role, latency: latency, handler: h}
	return nil
}

// Replace installs a server at addr, overwriting any existing registration
// (tests swap an authoritative server mid-run with it).
func (n *Network) Replace(addr netip.Addr, name string, role Role, latency time.Duration, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.servers[addr] = &serverEntry{name: name, role: role, latency: latency, handler: h}
}

// ResetTaps removes all global capture taps (the aggregate counters are
// kept).
func (n *Network) ResetTaps() { n.root.ResetTaps() }

// AddTap attaches a global capture tap: it sees every subsequent exchange
// of every shard, after the originating shard's own taps.
func (n *Network) AddTap(tap Tap) { n.root.AddTap(tap) }

// Now returns the root shard's simulation time.
func (n *Network) Now() time.Duration { return n.root.Now() }

// Advance moves the root shard's clock forward (used by trace-driven
// experiments between queries).
func (n *Network) Advance(d time.Duration) { n.root.Advance(d) }

// Stats returns the total exchanges and bytes carried so far.
func (n *Network) Stats() (queries int, bytes int64) {
	return int(n.totalQueries.Load()), n.totalBytes.Load()
}

// account adds one exchange to the aggregate counters.
func (n *Network) account(qLen, rLen int) {
	n.totalQueries.Add(1)
	n.totalBytes.Add(int64(qLen + rLen))
}

// timeoutCost is the simulated cost of a query to a dead server.
const timeoutCost = 2 * time.Second

// lookup returns the shared server registered at dst.
func (n *Network) lookup(dst netip.Addr) (*serverEntry, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	entry, ok := n.servers[dst]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, dst)
	}
	return entry, nil
}

// roundTrip pushes one query through the wire codec to a server handler,
// returning the first question and the wire sizes for capture accounting.
// It touches no clock and no shared counters.
//
// The fast path encodes into a pooled buffer, extracts the question with
// the single-pass DecodeQuestion, hands the caller's message to the handler
// (handlers treat queries as read-only, and every handler-built response
// already decodes to itself — pinned by the experiment equivalence test),
// and skips re-decoding the server's own response. Tap and capture
// semantics are unchanged: the question, sizes, rcode, and Z bit fed to
// taps are byte-derived exactly as before.
func roundTrip(entry *serverEntry, src netip.Addr, q *dns.Message) (resp *dns.Message, question dns.Question, qLen, rLen int, err error) {
	if referencePath.Load() {
		return roundTripReference(entry, src, q)
	}
	bufp := wireBufPool.Get().(*[]byte)
	defer func() {
		wireBufPool.Put(bufp)
	}()
	qWire, err := q.AppendEncode((*bufp)[:0])
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: encoding query: %w", err)
	}
	*bufp = qWire[:0] // keep grown capacity pooled
	qLen = len(qWire)
	question, err = dns.DecodeQuestion(qWire)
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: server-side decode: %w", err)
	}
	if wr, ok := entry.handler.(WireResponder); ok {
		resp, rWire, err := wr.HandleQueryWire(q, src, qWire[:0])
		if err != nil {
			return nil, question, 0, 0, fmt.Errorf("simnet: server %s: %w", entry.name, err)
		}
		*bufp = rWire[:0]
		return resp, question, qLen, len(rWire), nil
	}
	handled, err := entry.handler.HandleQuery(q, src)
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: server %s: %w", entry.name, err)
	}
	rWire, err := handled.AppendEncode(qWire[:0])
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: encoding response: %w", err)
	}
	*bufp = rWire[:0]
	return handled, question, qLen, len(rWire), nil
}

// roundTripReference is the seed exchange path: encode and decode on both
// sides of the wire. SetReferencePath(true) routes every exchange here.
func roundTripReference(entry *serverEntry, src netip.Addr, q *dns.Message) (resp *dns.Message, question dns.Question, qLen, rLen int, err error) {
	qWire, err := q.Encode()
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: encoding query: %w", err)
	}
	qDecoded, err := dns.DecodeMessage(qWire)
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: server-side decode: %w", err)
	}
	if len(qDecoded.Question) > 0 {
		question = qDecoded.Question[0]
	}
	handled, err := entry.handler.HandleQuery(qDecoded, src)
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: server %s: %w", entry.name, err)
	}
	rWire, err := handled.Encode()
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: encoding response: %w", err)
	}
	rDecoded, err := dns.DecodeMessage(rWire)
	if err != nil {
		return nil, question, 0, 0, fmt.Errorf("simnet: client-side decode: %w", err)
	}
	return rDecoded, question, len(qWire), len(rWire), nil
}

// Exchange is the root shard's Exchange. It implements Exchanger.
func (n *Network) Exchange(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	return n.root.Exchange(src, dst, q)
}
