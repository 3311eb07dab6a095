package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/loadgen"
)

// The generator is the benchmark's own: at most nproc sockets and
// goroutines, exact latency samples in preallocated slices, and a wire-level
// check of every response so the client steals as little CPU from the
// server under test as it can.

const (
	// queryTimeout is how long a closed-loop query waits before it counts
	// as lost, and the age at which the open loop reclaims an unanswered
	// query.
	queryTimeout = time.Second
	// warmTimeout replaces queryTimeout during closed-loop warm-up, where a
	// first touch can legitimately take seconds (a million-name TLD index is
	// built on the first query that needs it).
	warmTimeout = 10 * time.Second
	// maxRatePerConn sizes the preallocated sample slices (queries per
	// second per socket); samples past it are counted, not stored.
	maxRatePerConn = 150_000
)

// tally counts client-side outcomes of one phase.
type tally struct {
	attempted  int64 // sent (closed loop) or due (open loop)
	answered   int64 // NOERROR/NXDOMAIN with matching ID and question
	refused    int64 // the gate's designed shed answer
	servfail   int64
	otherRCode int64
	mismatched int64 // short, QR clear, TC set, or question not echoed
	lost       int64 // no answer within queryTimeout
	stale      int64 // datagrams skipped for a non-matching ID
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.answered += o.answered
	t.refused += o.refused
	t.servfail += o.servfail
	t.otherRCode += o.otherRCode
	t.mismatched += o.mismatched
	t.lost += o.lost
	t.stale += o.stale
}

// failed is what counts against the workload: REFUSED is a failure unless
// the workload runs behind the gate, where it is the designed answer.
func (t tally) failed(refusedOK bool) int64 {
	f := t.lost + t.servfail + t.otherRCode + t.mismatched
	if !refusedOK {
		f += t.refused
	}
	return f
}

type verdict int

const (
	vAnswer verdict = iota
	vRefused
	vServfail
	vOtherRCode
	vMismatch
	vStale
)

func (t *tally) count(v verdict) {
	switch v {
	case vAnswer:
		t.answered++
	case vRefused:
		t.refused++
	case vServfail:
		t.servfail++
	case vOtherRCode:
		t.otherRCode++
	case vMismatch:
		t.mismatched++
	}
}

// questionOf returns the question section of a single-question message, or
// nil when the message is too short to hold one.
func questionOf(wire []byte) []byte {
	i := 12
	for i < len(wire) && wire[i] != 0 {
		i += int(wire[i]) + 1
	}
	if i+5 > len(wire) {
		return nil
	}
	return wire[12 : i+5]
}

// hashBytes is FNV-1a; the open loop keeps one per message ID in place of
// the question itself.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// checkResponse validates one datagram's header against the query it should
// answer (ID, QR, TC, QDCOUNT, RCode) and returns the question it echoes for
// the caller to compare with what was asked. The gate's shed answer is a
// bare 12-byte REFUSED header that echoes no question; echo is nil for it.
func checkResponse(id uint16, resp []byte) (v verdict, echo []byte) {
	if len(resp) < 12 {
		return vMismatch, nil
	}
	if binary.BigEndian.Uint16(resp) != id {
		return vStale, nil
	}
	if resp[2]&0x80 == 0 {
		return vMismatch, nil
	}
	rcode := dns.RCode(resp[3] & 0x0f)
	if rcode == dns.RCodeRefused && len(resp) == 12 {
		return vRefused, nil
	}
	echo = questionOf(resp)
	if resp[2]&0x02 != 0 || binary.BigEndian.Uint16(resp[4:]) != 1 || echo == nil {
		return vMismatch, nil
	}
	switch rcode {
	case dns.RCodeNoError, dns.RCodeNXDomain:
		return vAnswer, echo
	case dns.RCodeRefused:
		return vRefused, echo
	case dns.RCodeServFail:
		return vServfail, echo
	}
	return vOtherRCode, echo
}

// nameStream draws population names from a seeded loadgen schedule: Zipf
// s=1.2 (a recursive's workload) or uniform (a cache-busting flood).
type nameStream struct {
	sched *loadgen.Schedule
	names []dns.Name
}

func newNameStream(seed int64, stream int, names []dns.Name, uniform bool) (*nameStream, error) {
	// Only the name sequence is used; the schedule's minutes are a
	// convenient endless source of seeded batches.
	sched, err := loadgen.NewSchedule(loadgen.ScheduleConfig{
		Clients: 1, PopSize: len(names), Seed: seed*1_000_003 + int64(stream), Uniform: uniform,
	}, func() (int, error) { return 1 << 16, nil })
	if err != nil {
		return nil, err
	}
	return &nameStream{sched: sched, names: names}, nil
}

func (s *nameStream) next() dns.Name {
	ev, err := s.sched.Next()
	if err != nil {
		panic(err) // the source above never ends
	}
	return s.names[ev.Name]
}

// querier encodes A queries with EDNS0+DO into one reused buffer.
type querier struct {
	msg  dns.Message
	q    [1]dns.Question
	edns dns.EDNS
	buf  []byte
}

func newQuerier() *querier {
	b := &querier{buf: make([]byte, 0, 512)}
	b.edns = dns.EDNS{UDPSize: dns.DefaultUDPSize, DO: true}
	b.msg.Header = dns.Header{Opcode: dns.OpcodeQuery, RD: true}
	b.msg.Question = b.q[:]
	b.msg.EDNS = &b.edns
	return b
}

func (b *querier) wire(id uint16, name dns.Name) []byte {
	b.msg.Header.ID = id
	b.q[0] = dns.Question{Name: name, Type: dns.TypeA, Class: dns.ClassIN}
	wire, err := b.msg.AppendEncode(b.buf[:0])
	if err != nil {
		panic(fmt.Sprintf("encoding query for %s: %v", name, err)) // population names always encode
	}
	b.buf = wire
	return wire
}

// clientSpan is one query as the generator saw it; it shares its ID with
// the serve.handle span the traced run records on the server side.
type clientSpan struct {
	id         uint16
	start, end int64 // ns since the run's epoch
}

// packetPair is a query and its response as they crossed the socket, kept
// for the codec probes.
type packetPair struct{ query, response []byte }

// phaseResult is what one measured phase produced, merged over sockets.
// Rates are means over the whole phase and percentiles are pooled over all
// of its samples: with a million names in the heap a GC cycle takes seconds,
// and a statistic over shorter slices of the phase measures mostly how the
// slices fell on the cycle.
type phaseResult struct {
	tally    tally
	elapsed  time.Duration
	lat      []int64 // ns per real answer that arrived within the phase, sorted
	spans    []clientSpan
	dropped  int64 // samples past the preallocated capacity
	sockets  int
	lateness time.Duration // open loop: worst sender lateness
	inflight int64         // open loop: in-flight high-water mark
}

// rate is real answers per second over the phase.
func (r *phaseResult) rate() float64 { return float64(len(r.lat)+int(r.dropped)) / r.elapsed.Seconds() }

// closedConn is one closed-loop connection: a socket and a goroutine that
// sends its next query only after the previous one completed.
type closedConn struct {
	conn  *net.UDPConn
	names *nameStream
	qb    *querier
	rbuf  [4096]byte
	base  uint16 // socket index in the ID's top bit, so IDs identify the socket
	seq   uint16
	// timeout is how long a query waits before it counts as lost.
	timeout time.Duration

	tally   tally
	lat     []int64
	dropped int64
	spans   []clientSpan
	pairs   []packetPair
}

// exchange runs one query to completion and reports its verdict and times.
func (c *closedConn) exchange() (v verdict, ok bool, t0, t1 time.Time) {
	c.seq++
	id := c.base | c.seq&0x7fff
	wire := c.qb.wire(id, c.names.next())
	question := questionOf(wire)
	c.tally.attempted++
	t0 = time.Now()
	if _, err := c.conn.Write(wire); err != nil {
		c.tally.lost++
		return 0, false, t0, t0
	}
	_ = c.conn.SetReadDeadline(t0.Add(c.timeout)) // cannot fail on an open socket
	for {
		n, err := c.conn.Read(c.rbuf[:])
		if err != nil {
			c.tally.lost++
			return 0, false, t0, time.Now()
		}
		var echo []byte
		v, echo = checkResponse(id, c.rbuf[:n])
		if v == vStale {
			c.tally.stale++
			continue
		}
		if echo != nil && !bytes.Equal(echo, question) {
			v = vMismatch
		}
		t1 = time.Now()
		c.tally.count(v)
		if c.pairs != nil && len(c.pairs) < cap(c.pairs) && v == vAnswer {
			c.pairs = append(c.pairs, packetPair{bytes.Clone(wire), bytes.Clone(c.rbuf[:n])})
		}
		return v, true, t0, t1
	}
}

// closedLoop drives the closed-loop connections through warm-up and
// measured phases.
type closedLoop struct {
	conns []*closedConn
	epoch time.Time
}

// newClosedLoop dials n connections to server, each with its own name
// stream. capturePairs > 0 keeps that many query/response pairs per socket.
func newClosedLoop(server netip.AddrPort, n int, seed int64, names []dns.Name, uniform bool, epoch time.Time, capturePairs int) (*closedLoop, error) {
	g := &closedLoop{epoch: epoch}
	for i := 0; i < n; i++ {
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial %s: %w", server, err)
		}
		ns, err := newNameStream(seed, i, names, uniform)
		if err != nil {
			_ = conn.Close()
			g.close()
			return nil, err
		}
		c := &closedConn{conn: conn, names: ns, qb: newQuerier(), base: uint16(i) << 15}
		if capturePairs > 0 {
			c.pairs = make([]packetPair, 0, capturePairs)
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

func (g *closedLoop) close() {
	for _, c := range g.conns {
		_ = c.conn.Close()
	}
}

// each runs fn once per connection, concurrently, and waits.
func (g *closedLoop) each(fn func(c *closedConn)) {
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *closedConn) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// warm sends total queries, split over the connections, untimed.
func (g *closedLoop) warm(total int) tally {
	per := (total + len(g.conns) - 1) / len(g.conns)
	g.each(func(c *closedConn) {
		c.tally = tally{}
		c.timeout = warmTimeout
		for i := 0; i < per; i++ {
			c.exchange()
		}
	})
	var t tally
	for _, c := range g.conns {
		t.add(c.tally)
	}
	return t
}

// measure runs every connection flat out for d and merges what they saw.
// With spans set, each query also leaves a clientSpan.
func (g *closedLoop) measure(d time.Duration, spans bool) *phaseResult {
	capacity := int(d.Seconds()*maxRatePerConn) + 1
	for _, c := range g.conns {
		c.tally = tally{}
		c.timeout = queryTimeout
		c.lat = make([]int64, 0, capacity)
		c.dropped = 0
		c.spans = nil
		if spans {
			c.spans = make([]clientSpan, 0, capacity)
		}
	}
	start := time.Now()
	g.each(func(c *closedConn) {
		for {
			v, ok, t0, t1 := c.exchange()
			since := t1.Sub(start)
			switch {
			case !ok || v != vAnswer || since > d:
			case len(c.lat) == cap(c.lat):
				c.dropped++
			default:
				c.lat = append(c.lat, int64(t1.Sub(t0)))
				if spans {
					c.spans = append(c.spans, clientSpan{
						id: c.base | c.seq&0x7fff, start: int64(t0.Sub(g.epoch)), end: int64(t1.Sub(g.epoch)),
					})
				}
			}
			if since >= d {
				return
			}
		}
	})
	res := &phaseResult{elapsed: d, sockets: len(g.conns)}
	for _, c := range g.conns {
		res.tally.add(c.tally)
		res.spans = append(res.spans, c.spans...)
		res.lat = append(res.lat, c.lat...)
		res.dropped += c.dropped
	}
	slices.Sort(res.lat)
	return res
}

// pairs returns the captured query/response pairs of every socket.
func (g *closedLoop) pairs() []packetPair {
	var out []packetPair
	for _, c := range g.conns {
		out = append(out, c.pairs...)
	}
	return out
}

// openLoop is the storm generator: one socket, one sender goroutine pacing
// a fixed rate in 1 ms ticks and one receiver goroutine. Each query is timed
// from the tick it was due, so a stall's wait lands on the queries behind
// it. The number in flight is capped; a query unanswered for queryTimeout is
// reclaimed and counted lost.
type openLoop struct {
	conn  *net.UDPConn
	names *nameStream
	qb    *querier
	epoch time.Time

	perTick int

	// due holds, per message ID, the ns-since-epoch the query in flight
	// under that ID was due (0: none). Sender and receiver race to swap it
	// back to 0; the winner accounts for the query. qhash is the hash of
	// that query's question, written before due and read after it.
	due         [1 << 16]atomic.Int64
	qhash       [1 << 16]uint64
	outstanding atomic.Int64
}

const (
	stormTick = time.Millisecond
	// stormInflight caps queries in flight. A default 208 KiB socket buffer
	// holds some 256 to 277 small datagrams; a cap well under that means a
	// descheduled read loop delays queries but the kernel never drops one.
	stormInflight = 192
)

func newOpenLoop(server netip.AddrPort, rate int, seed int64, names []dns.Name, epoch time.Time) (*openLoop, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(server))
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", server, err)
	}
	ns, err := newNameStream(seed, 0, names, true)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return &openLoop{
		conn: conn, names: ns, qb: newQuerier(), epoch: epoch,
		perTick: int(float64(rate) * stormTick.Seconds()),
	}, nil
}

func (g *openLoop) close() { _ = g.conn.Close() }

// prime sends n queries one at a time over the storm's socket, waiting for
// each answer as a closed loop does.
func (g *openLoop) prime(n int) tally {
	c := &closedConn{conn: g.conn, names: g.names, qb: g.qb, timeout: warmTimeout}
	for i := 0; i < n; i++ {
		c.exchange()
	}
	_ = g.conn.SetReadDeadline(time.Time{})
	return c.tally
}

// run offers the fixed rate for d. With record false (warm-up) outcomes are
// counted but no samples are kept.
func (g *openLoop) run(d time.Duration, record, spans bool) *phaseResult {
	res := &phaseResult{elapsed: d, sockets: 1}
	ticks := int(d / stormTick)
	total := ticks * g.perTick
	if record {
		res.lat = make([]int64, 0, total)
		if spans {
			res.spans = make([]clientSpan, 0, total)
		}
	}
	start := time.Now()

	// The receiver owns recv; the sender owns sent. They are merged after
	// both have stopped.
	var recv, sent tally
	var inflightMax int64
	senderDone := make(chan struct{})
	receiverDone := make(chan struct{})

	go func() {
		defer close(receiverDone)
		var rbuf [4096]byte
		for {
			n, err := g.conn.Read(rbuf[:])
			if err != nil {
				return // deadline set by the sender once it has drained
			}
			if n < 12 {
				recv.mismatched++
				continue
			}
			id := binary.BigEndian.Uint16(rbuf[:])
			dueNs := g.due[id].Swap(0)
			if dueNs == 0 {
				recv.stale++ // already reclaimed as lost
				continue
			}
			g.outstanding.Add(-1)
			now := time.Now()
			v, echo := checkResponse(id, rbuf[:n])
			if echo != nil && hashBytes(echo) != g.qhash[id] {
				v = vMismatch
			}
			recv.count(v)
			// An answer that arrives after the phase's end belongs to its
			// drain, not to its rate.
			if v != vAnswer || !record || now.Sub(start) > d {
				continue
			}
			endNs := int64(now.Sub(g.epoch))
			res.lat = append(res.lat, endNs-dueNs)
			if spans {
				res.spans = append(res.spans, clientSpan{id: id, start: dueNs, end: endNs})
			}
		}
	}()

	go func() {
		defer close(senderDone)
		var head, tail uint32 // next sequence to send / oldest not yet reclaimed
		reclaim := func(nowNs int64) {
			for tail != head {
				id := uint16(tail)
				dueNs := g.due[id].Load()
				if dueNs != 0 {
					if nowNs-dueNs < int64(queryTimeout) {
						return
					}
					if g.due[id].Swap(0) != 0 {
						g.outstanding.Add(-1)
						sent.lost++
					}
				}
				tail++
			}
		}
		giveUp := start.Add(d + queryTimeout)
		for k := 0; k < total; k++ {
			tick := k / g.perTick
			dueAt := start.Add(time.Duration(tick) * stormTick)
			if k%g.perTick == 0 {
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if late := now.Sub(dueAt); late > res.lateness {
					res.lateness = late
				}
				reclaim(int64(now.Sub(g.epoch)))
			}
			sent.attempted++
			// A full window holds the sender back, not the schedule: the
			// query stays due when it was, and the wait is charged to it and
			// to every query queued behind it.
			for g.outstanding.Load() >= stormInflight || head-tail >= 1<<16-1 {
				if time.Now().After(giveUp) {
					break
				}
				time.Sleep(stormTick / 10)
				reclaim(int64(time.Since(g.epoch)))
			}
			if time.Now().After(giveUp) {
				sent.lost++ // the server stopped answering; never sent
				continue
			}
			id := uint16(head)
			head++
			wire := g.qb.wire(id, g.names.next())
			g.qhash[id] = hashBytes(questionOf(wire))
			g.due[id].Store(int64(dueAt.Sub(g.epoch)))
			if n := g.outstanding.Add(1); n > inflightMax {
				inflightMax = n
			}
			if _, err := g.conn.Write(wire); err != nil {
				if g.due[id].Swap(0) != 0 {
					g.outstanding.Add(-1)
					sent.lost++
				}
			}
		}
		// Drain: give the tail of the run queryTimeout to come back.
		deadline := time.Now().Add(queryTimeout)
		for g.outstanding.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(stormTick)
		}
		reclaim(int64(time.Since(g.epoch)) + int64(queryTimeout))
		_ = g.conn.SetReadDeadline(time.Now()) // unblocks the receiver
	}()

	<-senderDone
	<-receiverDone
	_ = g.conn.SetReadDeadline(time.Time{})
	res.tally.add(sent)
	res.tally.add(recv)
	res.inflight = inflightMax
	slices.Sort(res.lat)
	return res
}
