package simnet

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
)

// TCPExchanger is implemented by transports that can retry a truncated
// answer over a reliable stream. Network and Shard both implement it; the
// resolver uses it for TC-bit fallback when the transport offers it.
type TCPExchanger interface {
	Exchanger
	ExchangeTCP(src, dst netip.Addr, q *dns.Message) (*dns.Message, error)
}

// exchange is the single exchange path, for both UDP and TCP semantics. A
// Down or Drop decision of the link's fault plan (if any) charges the
// timeout cost to the shard clock and fails; a delivered response may be
// mutated (byzantine answers, forced truncation, wire corruption) before
// the clock, taps, and byte accounting see it, so captures always reflect
// what was "on the wire".
func (s *Shard) exchange(src, dst netip.Addr, q *dns.Message, tcp bool) (*dns.Message, error) {
	entry, err := s.lookup(dst)
	if err != nil {
		return nil, err
	}

	dec, faulted := s.decideFault(dst, tcp)
	if faulted {
		if dec.Down {
			s.Advance(timeoutCost)
			return nil, fmt.Errorf("%w: %s (%s)", ErrServerDown, entry.name, dst)
		}
		if dec.Drop {
			s.Advance(timeoutCost)
			return nil, fmt.Errorf("%w: %s (%s)", ErrPacketLoss, entry.name, dst)
		}
	}

	// A query entering the recursive resolver is resolved synchronously
	// inside roundTrip, so every exchange the resolver issues before
	// returning belongs to this stub: mark it as the attribution client
	// for the duration (restored on return, so direct exchanges outside a
	// stub query stay self-attributed).
	if entry.role == RoleRecursive {
		prev := s.swapClient(src)
		defer s.swapClient(prev)
	}

	resp, question, qLen, rLen, err := roundTrip(entry, src, q)
	if err != nil {
		return nil, err
	}

	if faulted {
		resp, rLen, err = applyResponseFaults(dec, resp, rLen)
		if err != nil {
			// The mutated packet no longer parses: to the client this is
			// indistinguishable from loss — a timeout.
			s.Advance(timeoutCost)
			return nil, fmt.Errorf("%w: %s (%s)", ErrCorruptResponse, entry.name, dst)
		}
	}

	rtt := 2 * entry.latency
	if tcp {
		// Stream setup (connect + first byte) costs one extra round trip.
		rtt += 2 * entry.latency
	}
	rtt += dec.ExtraLatency
	now, taps, globalTaps := s.commit(rtt)
	s.net.account(qLen, rLen)

	ev := Event{
		Time:      now,
		Src:       src,
		Dst:       dst,
		Client:    s.attributedClient(src),
		DstName:   entry.name,
		DstRole:   entry.role,
		Question:  question,
		QuerySize: qLen,
		RespSize:  rLen,
		RCode:     resp.Header.RCode,
		RTT:       rtt,
		ZBit:      resp.Header.Z,
	}
	for _, tap := range taps {
		tap(ev)
	}
	for _, tap := range globalTaps {
		tap(ev)
	}
	return resp, nil
}

// applyResponseFaults produces the response the client actually receives
// under decision dec: byzantine mutation, forced truncation, and wire
// corruption, in that order (a truncated packet can still be corrupted on
// the wire). The handler's message is never touched — mutations work on a
// Clone — and the returned size is the mutated packet's encoded size, so
// taps and byte accounting stay wire-accurate. A non-nil error means the
// corrupted packet no longer parses and must be treated as a timeout.
func applyResponseFaults(dec faults.Decision, resp *dns.Message, rLen int) (*dns.Message, int, error) {
	if dec.Byzantine == faults.ByzNone && !dec.Truncate && !dec.Corrupt {
		return resp, rLen, nil
	}
	m := resp.Clone()
	switch dec.Byzantine {
	case faults.ByzServFail:
		m.Header.RCode = dns.RCodeServFail
		m.Header.AD = false
		m.Answer, m.Authority, m.Additional = nil, nil, nil
	case faults.ByzBogusSig:
		bogusSigs(m, dec.Entropy)
	case faults.ByzWrongDenial:
		wrongDenial(m)
	}
	if dec.Truncate {
		// An overloaded or size-capped server sets TC and sends only the
		// question; the client is expected to retry over TCP.
		m.Header.TC = true
		m.Answer, m.Authority, m.Additional = nil, nil, nil
	}
	wire, err := m.Encode()
	if err != nil {
		return nil, 0, fmt.Errorf("encoding faulted response: %w", err)
	}
	if dec.Corrupt {
		faults.Corrupt(dec.Entropy, wire)
		decoded, err := dns.DecodeMessage(wire)
		if err != nil {
			return nil, 0, err
		}
		return decoded, len(wire), nil
	}
	return m, len(wire), nil
}

// bogusSigs replaces every RRSIG in the message with a copy whose signature
// bytes are deterministically garbled: the records are all present, but
// DNSSEC verification fails — the "stale or bogus signature" registry
// failure mode. RData is shared with the handler's message, so the touched
// RRSIGData values are deep-copied before mutation.
func bogusSigs(m *dns.Message, entropy uint64) {
	mangle := func(rrs []dns.RR) {
		for i := range rrs {
			sig, ok := rrs[i].Data.(*dns.RRSIGData)
			if !ok || len(sig.Signature) == 0 {
				continue
			}
			c := *sig
			c.Signature = append([]byte(nil), sig.Signature...)
			faults.Corrupt(entropy, c.Signature)
			rrs[i].Data = &c
		}
	}
	mangle(m.Answer)
	mangle(m.Authority)
	mangle(m.Additional)
}

// wrongDenial breaks denial-of-existence on negative responses: NXDOMAIN is
// flattened to an unproven empty NOERROR and the authority section (SOA,
// NSEC/NSEC3 spans and their signatures) is stripped, so clients can never
// validate the denial or engage aggressive negative caching. Responses that
// carry answers pass through untouched.
func wrongDenial(m *dns.Message) {
	if len(m.Answer) > 0 {
		return
	}
	if m.Header.RCode == dns.RCodeNXDomain {
		m.Header.RCode = dns.RCodeNoError
	}
	m.Header.AD = false
	m.Authority = nil
}

// SetFaultPlan installs a plan on the root shard (see Shard.SetFaultPlan);
// no other shard consults it.
func (n *Network) SetFaultPlan(addr netip.Addr, p faults.Plan) { n.root.SetFaultPlan(addr, p) }

// ClearFaultPlans removes the root shard's fault plans.
func (n *Network) ClearFaultPlans() { n.root.ClearFaultPlans() }

// FaultStats returns the root shard's fault counters for the link toward
// addr.
func (n *Network) FaultStats(addr netip.Addr) (faults.Stats, bool) { return n.root.FaultStats(addr) }

// ExchangeTCP is the root shard's ExchangeTCP.
func (n *Network) ExchangeTCP(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	return n.root.ExchangeTCP(src, dst, q)
}

// SetFaultPlan attaches a seeded fault schedule to the link toward addr for
// exchanges made on this shard. Fault plans are strictly per clock domain:
// a shard never consults another's plans (a shared mutable draw sequence
// would make results depend on worker interleaving), so sharded experiments
// install a plan on every shard, each advancing its own deterministic fault
// history. Installing a plan — even an all-zero one — also starts per-link
// fault statistics: Attempts counts every query sent toward the server,
// which is the on-path observer's view of link load. A second call replaces
// the plan and resets its statistics.
func (s *Shard) SetFaultPlan(addr netip.Addr, p faults.Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults == nil {
		s.faults = make(map[netip.Addr]*faults.State)
	}
	s.faults[addr] = faults.NewState(p)
}

// ClearFaultPlans removes every fault plan (and its statistics) from the
// shard.
func (s *Shard) ClearFaultPlans() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = nil
}

// FaultStats returns the shard's fault counters for the link toward addr,
// and whether a plan is installed there.
func (s *Shard) FaultStats(addr netip.Addr) (faults.Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.faults[addr]
	if !ok {
		return faults.Stats{}, false
	}
	return st.Stats(), true
}

// decideFault evaluates the shard's fault plan for one exchange.
func (s *Shard) decideFault(dst netip.Addr, tcp bool) (faults.Decision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults == nil {
		return faults.Decision{}, false
	}
	st, ok := s.faults[dst]
	if !ok {
		return faults.Decision{}, false
	}
	if tcp {
		return st.DecideTCP(s.now), true
	}
	return st.Decide(s.now), true
}

// commit advances the shard clock by rtt and returns the new time plus the
// tap lists to feed, in firing order: the shard's own taps, then the global
// ones — the root shard's, which the root itself returns only once.
func (s *Shard) commit(rtt time.Duration) (now time.Duration, taps, globalTaps []Tap) {
	s.mu.Lock()
	s.now += rtt
	now = s.now
	taps = s.taps
	s.mu.Unlock()
	if root := s.net.root; s != root {
		root.mu.Lock()
		globalTaps = root.taps
		root.mu.Unlock()
	}
	return now, taps, globalTaps
}

// ExchangeTCP is Exchange over a simulated reliable stream: packet loss,
// forced truncation, and wire corruption do not apply (TCP retransmits
// under the covers), but outages, latency faults, and byzantine answers
// still do, and stream setup costs one extra round trip. The resolver uses
// it to retry truncated UDP answers.
func (s *Shard) ExchangeTCP(src, dst netip.Addr, q *dns.Message) (*dns.Message, error) {
	return s.exchange(src, dst, q, true)
}

var (
	_ TCPExchanger = (*Network)(nil)
	_ TCPExchanger = (*Shard)(nil)
)
