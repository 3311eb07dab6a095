// Package udptransport serves the repository's DNS handlers over real UDP
// sockets and provides a matching client, so the simulated components can
// be exercised with real resolvers and tools (dig, drill): cmd/resolved
// fronts the recursive resolver, cmd/dlvd fronts the DLV registry.
//
// The UDP server is sharded (DESIGN.md §14): ListenShards binds N sockets
// to the same address via SO_REUSEPORT so the kernel spreads flows across
// N independent read loops, one per shard. Each shard recycles its packet
// buffers through a freelist, hands admitted work to a fixed worker pool,
// and tracks its own in-flight WaitGroup — the hot loop takes no locks and
// spawns no per-packet goroutines. On platforms without SO_REUSEPORT the
// server falls back to a single shard with the same semantics.
package udptransport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// maxPacket is the largest UDP payload accepted (EDNS0 ceiling).
const maxPacket = 4096

// freelistCap bounds each shard's recycled packet buffers. Deep enough to
// cover the admission window a shard can realistically hold; overflow
// buffers just fall to the garbage collector.
const freelistCap = 256

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("udptransport: server closed")

// ErrDrainTimeout is returned by Shutdown when in-flight queries did not
// complete within the drain deadline.
var ErrDrainTimeout = errors.New("udptransport: drain deadline exceeded")

// errServeTwice guards the per-shard worker pools: Serve owns their
// lifecycle, so a second concurrent Serve on one Server is a bug.
var errServeTwice = errors.New("udptransport: Serve called twice")

// Stats are the serving-side transport counters one listener accumulates —
// half of the serving-tier scorecard (the resolver's Stats are the other).
// All fields are monotonic except InFlight.
type Stats struct {
	// Queries counts well-formed queries handed to the handler; Malformed
	// counts datagrams (or TCP frames) dropped undecodable.
	Queries   uint64
	Malformed uint64
	// Responses counts responses written; Truncated counts UDP responses
	// sent with TC set because the full answer exceeded the datagram
	// ceiling; ServFails counts handler errors surfaced as SERVFAIL.
	Responses uint64
	Truncated uint64
	ServFails uint64
	// InFlight is the current number of queries being handled;
	// MaxInFlight is its high-water mark. On a sharded server the merged
	// MaxInFlight is the sum of the per-shard high-water marks — an upper
	// bound on the true process-wide peak (the shards need not have peaked
	// at the same instant), exact at one shard.
	InFlight    int64
	MaxInFlight int64
	// Conns counts TCP connections accepted (0 on UDP servers).
	Conns uint64
}

// counters is the shared atomic implementation behind Stats.
type counters struct {
	queries   atomic.Uint64
	malformed atomic.Uint64
	responses atomic.Uint64
	truncated atomic.Uint64
	servfails atomic.Uint64
	conns     atomic.Uint64
	inflight  atomic.Int64
	maxInFl   atomic.Int64
}

// enter tracks one query entering the handler, updating the in-flight
// high-water mark.
func (c *counters) enter() {
	cur := c.inflight.Add(1)
	for {
		max := c.maxInFl.Load()
		if cur <= max || c.maxInFl.CompareAndSwap(max, cur) {
			return
		}
	}
}

func (c *counters) leave() { c.inflight.Add(-1) }

// snapshot copies the counters into an exported Stats.
func (c *counters) snapshot() Stats {
	return Stats{
		Queries:     c.queries.Load(),
		Malformed:   c.malformed.Load(),
		Responses:   c.responses.Load(),
		Truncated:   c.truncated.Load(),
		ServFails:   c.servfails.Load(),
		InFlight:    c.inflight.Load(),
		MaxInFlight: c.maxInFl.Load(),
		Conns:       c.conns.Load(),
	}
}

// job is one admitted datagram handed from a shard's read loop to its
// worker pool. buf travels with it and returns to the freelist after
// handling; t is the AdmitFast timestamp so time spent queued in the
// hand-off channel counts against the gate's CoDel deadline.
type job struct {
	buf      *[maxPacket]byte
	n        int
	from     netip.AddrPort
	t        time.Time
	admitted bool
}

// Server pumps UDP packets through a simnet.Handler across one or more
// SO_REUSEPORT shards.
type Server struct {
	handler simnet.Handler
	// workers is the SetWorkers concurrency bound, split across shards.
	workers int
	// gate, when set, is the overload admission controller: every packet
	// passes AdmitFast in the read loop, sheds answer REFUSED from the
	// pre-encoded header, and admitted packets run under
	// AcquireSince/Release. The window and health machine are global —
	// one gate serves every shard.
	gate *overload.Controller

	shards []*shard

	// closed flips once on Close; the read loops check it lock-free.
	closed  atomic.Bool
	serving atomic.Bool
}

// shard is one SO_REUSEPORT socket with its own read loop, buffer
// freelist, worker pool, stats, and drain WaitGroup.
type shard struct {
	srv  *Server
	conn net.PacketConn
	// uc is the *net.UDPConn fast path (ReadFromUDPAddrPort /
	// WriteToUDPAddrPort avoid a *net.UDPAddr allocation per packet);
	// nil only if the platform hands back some other PacketConn.
	uc *net.UDPConn

	stats counters

	// wg counts the read loop itself (one persistent token held from
	// Serve until the loop exits) plus every in-flight handler. The loop
	// token makes per-packet wg.Add race-free against Shutdown's wg.Wait:
	// Adds only happen while the loop token holds the counter above zero.
	wg sync.WaitGroup

	// jobs feeds the worker pool; nil means handle inline (workers <= 1,
	// ungated). In gated mode its capacity covers the whole admission
	// window, so the read loop never blocks on a send.
	jobs chan job

	// free recycles packet buffers; get falls back to allocation, put
	// drops on overflow.
	free chan *[maxPacket]byte
}

// Listen binds a single UDP socket (e.g. "127.0.0.1:5300"; port 0 picks a
// free one) and prepares to serve h.
func Listen(addr string, h simnet.Handler) (*Server, error) {
	return ListenShards(addr, h, 1)
}

// ListenShards binds n UDP sockets to the same address via SO_REUSEPORT so
// the kernel spreads clients across n independent read loops. n <= 1, or a
// platform without SO_REUSEPORT, degrades to a single socket; Shards
// reports the count actually bound.
func ListenShards(addr string, h simnet.Handler, n int) (*Server, error) {
	if h == nil {
		return nil, errors.New("udptransport: nil handler")
	}
	if n < 1 {
		n = 1
	}
	if n > 1 && !reusePortAvailable {
		n = 1
	}
	s := &Server{handler: h}
	if n == 1 {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("udptransport: listen %s: %w", addr, err)
		}
		s.shards = []*shard{newShard(s, conn)}
		return s, nil
	}
	first, err := listenReusePort(addr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: listen %s: %w", addr, err)
	}
	s.shards = append(s.shards, newShard(s, first))
	// Re-bind the resolved address so "port 0" shares one concrete port.
	bound := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		conn, err := listenReusePort(bound)
		if err != nil {
			for _, sh := range s.shards {
				_ = sh.conn.Close()
			}
			return nil, fmt.Errorf("udptransport: listen shard %d on %s: %w", i, bound, err)
		}
		s.shards = append(s.shards, newShard(s, conn))
	}
	return s, nil
}

func newShard(s *Server, conn net.PacketConn) *shard {
	sh := &shard{
		srv:  s,
		conn: conn,
		free: make(chan *[maxPacket]byte, freelistCap),
	}
	sh.uc, _ = conn.(*net.UDPConn)
	return sh
}

// Shards returns the number of listener shards actually bound.
func (s *Server) Shards() int { return len(s.shards) }

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.shards[0].conn.LocalAddr() }

// AddrPort returns the bound address as a netip.AddrPort.
func (s *Server) AddrPort() netip.AddrPort {
	if ua, ok := s.shards[0].conn.LocalAddr().(*net.UDPAddr); ok {
		return ua.AddrPort()
	}
	return netip.AddrPort{}
}

// Stats merges the per-shard transport counters. Every per-shard counter
// is atomic and monotone, so successive merged snapshots are monotone too;
// MaxInFlight is the sum of shard watermarks (see Stats).
func (s *Server) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.stats.snapshot()
		out.Queries += st.Queries
		out.Malformed += st.Malformed
		out.Responses += st.Responses
		out.Truncated += st.Truncated
		out.ServFails += st.ServFails
		out.InFlight += st.InFlight
		out.MaxInFlight += st.MaxInFlight
		out.Conns += st.Conns
	}
	return out
}

// SetWorkers lets up to n datagrams be handled concurrently, split across
// the shards; the handler must then be safe for concurrent use (e.g. a
// resolver pool). n <= 1 keeps each shard's loop synchronous. Must be
// called before Serve.
func (s *Server) SetWorkers(n int) { s.workers = n }

// SetGate installs the overload admission controller; nil serves ungated.
// The gate replaces the SetWorkers bound as the concurrency limit (its
// in-flight window caps queued handlers, its execution slots cap pool
// pressure), and one gate is shared by every shard — admission and health
// stay global. Must be called before Serve.
func (s *Server) SetGate(g *overload.Controller) { s.gate = g }

// poolSize returns the per-shard worker-pool width and jobs-channel
// capacity; pool 0 means handle inline on the read loop.
func (s *Server) poolSize() (pool, queue int) {
	switch {
	case s.gate != nil:
		// Workers cover the gate's execution slots plus one to keep the
		// queue deadline ticking while every slot is busy.
		pool = s.gate.ExecSlots() + 1
		if pool < 2 {
			pool = 2
		}
		// Admitted datagrams process-wide never exceed the window, so a
		// per-shard queue of window size can never block the read loop.
		queue = s.gate.Window() + 16
	case s.workers > 1:
		pool = (s.workers + len(s.shards) - 1) / len(s.shards)
		queue = pool
	}
	return pool, queue
}

// Serve processes packets on every shard until Close. Malformed packets
// are dropped; handler errors produce SERVFAIL responses.
func (s *Server) Serve() error {
	if !s.serving.CompareAndSwap(false, true) {
		return errServeTwice
	}
	pool, queue := s.poolSize()
	for _, sh := range s.shards {
		sh.start(pool, queue)
	}
	errc := make(chan error, len(s.shards))
	for _, sh := range s.shards {
		go func(sh *shard) { errc <- sh.loop() }(sh)
	}
	var first error
	for range s.shards {
		err := <-errc
		if err != nil && !errors.Is(err, ErrClosed) {
			// A real socket error on one shard tears down the rest.
			_ = s.Close()
			if first == nil || errors.Is(first, ErrClosed) {
				first = err
			}
		} else if first == nil {
			first = err
		}
	}
	return first
}

// start takes the loop token and spins up the worker pool.
func (sh *shard) start(pool, queue int) {
	sh.wg.Add(1)
	if pool > 0 {
		sh.jobs = make(chan job, queue)
		for i := 0; i < pool; i++ {
			go sh.worker()
		}
	}
}

func (sh *shard) worker() {
	for j := range sh.jobs {
		sh.run(j)
		sh.wg.Done()
	}
}

// run executes one pooled job. Admitted jobs re-check the queue deadline
// from their admission time, so time spent in the hand-off channel counts;
// a late job is shed exactly as if it had queued inside the gate.
func (sh *shard) run(j job) {
	if j.admitted {
		if !sh.srv.gate.AcquireSince(j.t) {
			sh.shed(j.buf[:j.n], j.from)
			sh.putBuf(j.buf)
			return
		}
		sh.handle(j.buf[:j.n], j.from)
		sh.srv.gate.Release()
	} else {
		sh.handle(j.buf[:j.n], j.from)
	}
	sh.putBuf(j.buf)
}

// getBuf pops a recycled packet buffer or allocates a fresh one.
func (sh *shard) getBuf() *[maxPacket]byte {
	select {
	case b := <-sh.free:
		return b
	default:
		return new([maxPacket]byte)
	}
}

// putBuf recycles a packet buffer; over capacity it falls to the GC.
func (sh *shard) putBuf(b *[maxPacket]byte) {
	select {
	case sh.free <- b:
	default:
	}
}

// loop is the shard's read loop, one datagram per wakeup. The loop token is
// released only on exit, after the deferred close(jobs) retires the worker
// pool.
func (sh *shard) loop() error {
	defer sh.wg.Done()
	if sh.jobs != nil {
		defer close(sh.jobs)
	}
	s := sh.srv
	for {
		buf := sh.getBuf()
		n, from, err := sh.read(buf[:])
		if err != nil {
			sh.putBuf(buf)
			if s.closed.Load() {
				return ErrClosed
			}
			return fmt.Errorf("udptransport: read: %w", err)
		}
		if s.closed.Load() {
			// A packet read in the close window is dropped — shutdown
			// stops accepting.
			sh.putBuf(buf)
			return ErrClosed
		}
		sh.dispatch(buf, n, from)
	}
}

// dispatch routes one datagram. Gated: the admission decision and both
// shed layers run synchronously — the read loop must never block behind a
// full pool, because a blocked read loop is exactly the collapse mode the
// gate exists to prevent; admitted packets enter the bounded jobs queue
// (capacity covers the whole window) and stats bypasses get a goroutine so
// observability never waits behind a saturated pool. Ungated with a pool:
// the blocking jobs send is the SetWorkers backpressure. No pool: inline.
func (sh *shard) dispatch(buf *[maxPacket]byte, n int, from netip.AddrPort) {
	s := sh.srv
	if s.gate != nil {
		switch s.gate.AdmitFast(buf[:n], from.Addr()) {
		case overload.Bypass:
			sh.wg.Add(1)
			go func() {
				defer sh.wg.Done()
				sh.handle(buf[:n], from)
				sh.putBuf(buf)
			}()
		case overload.Admitted:
			sh.wg.Add(1)
			sh.jobs <- job{buf: buf, n: n, from: from, t: time.Now(), admitted: true}
		default: // ShedRateLimited, ShedWindow
			sh.shed(buf[:n], from)
			sh.putBuf(buf)
		}
		return
	}
	if sh.jobs == nil {
		sh.handle(buf[:n], from)
		sh.putBuf(buf)
		return
	}
	sh.wg.Add(1)
	sh.jobs <- job{buf: buf, n: n, from: from}
}

// read receives one datagram, preferring the UDPConn netip fast path.
func (sh *shard) read(b []byte) (int, netip.AddrPort, error) {
	if sh.uc != nil {
		return sh.uc.ReadFromUDPAddrPort(b)
	}
	n, a, err := sh.conn.ReadFrom(b)
	var ap netip.AddrPort
	if ua, ok := a.(*net.UDPAddr); ok {
		ap = ua.AddrPort()
	}
	return n, ap, err
}

// write sends one datagram, preferring the UDPConn netip fast path.
func (sh *shard) write(b []byte, to netip.AddrPort) error {
	if sh.uc != nil {
		_, err := sh.uc.WriteToUDPAddrPort(b, to)
		return err
	}
	_, err := sh.conn.WriteTo(b, net.UDPAddrFromAddrPort(to))
	return err
}

// shed answers one raw query REFUSED from the pre-encoded header, patching
// only the ID — the cheap path that keeps the read loop draining at wire
// speed while the tier is saturated.
func (sh *shard) shed(pkt []byte, from netip.AddrPort) {
	if len(pkt) < overload.HeaderLen {
		sh.stats.malformed.Add(1)
		return
	}
	var buf [overload.HeaderLen]byte
	if err := sh.write(overload.RefusedInto(buf[:], pkt), from); err == nil {
		sh.stats.responses.Add(1)
	}
}

// handle processes one datagram. Responses go out on this shard's socket,
// which is safe for concurrent use across the pool. The decoder copies
// everything it retains (interned names, copied rdata), so pkt may be
// recycled the moment handle returns.
func (sh *shard) handle(pkt []byte, from netip.AddrPort) {
	q, err := dns.DecodeMessage(pkt)
	if err != nil {
		sh.stats.malformed.Add(1)
		return // drop garbage
	}
	sh.stats.queries.Add(1)
	sh.stats.enter()
	defer sh.stats.leave()
	resp, err := sh.srv.handler.HandleQuery(q, from.Addr())
	if err != nil {
		resp = dns.NewResponse(q)
		resp.Header.RCode = dns.RCodeServFail
		sh.stats.servfails.Add(1)
	}
	wire, err := resp.Encode()
	if err != nil {
		return
	}
	if len(wire) > maxPacket {
		// Truncate per RFC 1035 §4.2.1: header + question only, TC set.
		trunc := dns.NewResponse(q)
		trunc.Header.RCode = resp.Header.RCode
		trunc.Header.TC = true
		if wire, err = trunc.Encode(); err != nil {
			return
		}
		sh.stats.truncated.Add(1)
	}
	if err := sh.write(wire, from); err == nil {
		sh.stats.responses.Add(1)
	}
}

// Close stops the server immediately; in-flight handlers finish on their
// own time but nothing waits for them. Use Shutdown to drain.
func (s *Server) Close() error {
	s.closed.Store(true)
	var first error
	for _, sh := range s.shards {
		if err := sh.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shutdown stops accepting datagrams (closing the sockets unblocks every
// read loop) and waits up to timeout for in-flight queries to finish.
// In-flight responses race the socket close and may be dropped — the
// queries still complete, which is what draining protects. Returns
// ErrDrainTimeout when the deadline passes first.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.Close()
	done := make(chan struct{})
	go func() {
		for _, sh := range s.shards {
			sh.wg.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-time.After(timeout):
		return ErrDrainTimeout
	}
}

// Client sends queries over UDP.
type Client struct {
	// Timeout bounds each exchange (default 3s).
	Timeout time.Duration

	// discards counts datagrams skipped mid-exchange: undecodable noise
	// and ID mismatches (late duplicates from a prior retry).
	discards atomic.Uint64
}

// Discards reports datagrams skipped across all exchanges: undecodable
// responses and stale IDs read past instead of failing the exchange.
func (c *Client) Discards() uint64 { return c.discards.Load() }

// Query sends one message and decodes the response. Datagrams that do not
// decode, or whose ID does not match (a late duplicate from an earlier
// retry on the same local port), are discarded and the read continues
// until the deadline — one stale packet must not poison the exchange.
func (c *Client) Query(server netip.AddrPort, q *dns.Message) (*dns.Message, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	conn, err := net.Dial("udp", server.String())
	if err != nil {
		return nil, fmt.Errorf("udptransport: dial %s: %w", server, err)
	}
	defer func() { _ = conn.Close() }()

	wire, err := q.Encode()
	if err != nil {
		return nil, fmt.Errorf("udptransport: encode: %w", err)
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("udptransport: deadline: %w", err)
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, fmt.Errorf("udptransport: send: %w", err)
	}
	buf := make([]byte, maxPacket)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("udptransport: receive: %w", err)
		}
		resp, err := dns.DecodeMessage(buf[:n])
		if err != nil {
			c.discards.Add(1)
			continue
		}
		if resp.Header.ID != q.Header.ID {
			c.discards.Add(1)
			continue
		}
		return resp, nil
	}
}
