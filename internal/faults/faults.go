// Package faults provides deterministic, seeded fault injection for the
// simulated network, plus the resilience primitives built on top of it
// (transient-error classification and a circuit breaker).
//
// A Plan is an immutable, reproducible fault schedule for one link or
// server: probabilistic loss, latency jitter and spikes, outage (flap)
// windows over simulated time, forced truncation, response corruption, and
// byzantine registry behaviors. A State evaluates a plan one exchange at a
// time; every draw is a pure function of (seed, exchange ordinal), and
// outage windows are checked against the caller's logical clock, so a run
// is byte-reproducible regardless of wall time, scheduling, or worker
// count — each clock domain (a simnet shard) owns its own State and
// therefore its own deterministic fault history.
package faults

import (
	"errors"
	"time"
)

// Mode selects a byzantine server behavior: the server answers, but the
// answers are adversarial or broken, modeling a look-aside registry that
// misbehaves rather than disappears.
type Mode int

// Byzantine modes.
const (
	// ByzNone answers faithfully.
	ByzNone Mode = iota
	// ByzServFail answers every affected query with SERVFAIL (the storm a
	// dying registry emits).
	ByzServFail
	// ByzBogusSig corrupts RRSIG signature bytes in affected responses
	// (stale or bogus signatures: records present, verification fails).
	ByzBogusSig
	// ByzWrongDenial strips denial-of-existence proofs from negative
	// responses and flattens NXDOMAIN to an unproven empty answer, so
	// aggressive negative caching can never engage.
	ByzWrongDenial
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ByzNone:
		return "none"
	case ByzServFail:
		return "servfail"
	case ByzBogusSig:
		return "bogus-sig"
	case ByzWrongDenial:
		return "wrong-denial"
	default:
		return "unknown"
	}
}

// Window is a half-open interval [Start, End) of simulated time during
// which the server is unreachable.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// Plan is a seeded, reproducible fault schedule for one link or server.
// The zero value injects nothing. Rates are probabilities in [0, 1] and
// are clamped on evaluation.
type Plan struct {
	// Seed drives every probabilistic draw; two States over the same plan
	// produce identical decision sequences.
	Seed int64

	// LossRate drops this share of exchanges (sent, then lost: the sender
	// pays a timeout).
	LossRate float64

	// JitterMax adds a uniform [0, JitterMax) latency to each exchange.
	JitterMax time.Duration
	// SpikeRate adds SpikeLatency to this share of exchanges (congestion
	// spikes on top of the base jitter).
	SpikeRate    float64
	SpikeLatency time.Duration

	// Outages are flap windows in simulated time: while the clock is inside
	// one, the server is down and every exchange costs a timeout.
	Outages []Window
	// FlapPeriod/FlapDown generate a periodic outage schedule without
	// enumerating windows: every FlapPeriod, the server is down for the
	// first FlapDown. Both must be positive to take effect; explicit
	// Outages apply in addition.
	FlapPeriod, FlapDown time.Duration

	// TruncateRate forces the TC bit (and strips the payload) on this share
	// of UDP responses, as an overloaded or size-limited server would.
	TruncateRate float64

	// CorruptRate garbles this share of response packets on the wire. A
	// corrupted packet that no longer parses costs the client a timeout;
	// one that still parses is delivered as received.
	CorruptRate float64

	// Byzantine selects an adversarial answer behavior applied to
	// ByzantineRate of responses (1.0 = every response).
	Byzantine     Mode
	ByzantineRate float64
}

// Down reports whether the plan's outage schedule covers simulated time t.
func (p *Plan) Down(t time.Duration) bool {
	for _, w := range p.Outages {
		if w.Contains(t) {
			return true
		}
	}
	if p.FlapPeriod > 0 && p.FlapDown > 0 {
		return t%p.FlapPeriod < p.FlapDown
	}
	return false
}

// Zero reports whether the plan injects nothing (every field inert).
func (p *Plan) Zero() bool {
	return p.LossRate <= 0 && p.JitterMax <= 0 && p.SpikeRate <= 0 &&
		len(p.Outages) == 0 && !(p.FlapPeriod > 0 && p.FlapDown > 0) &&
		p.TruncateRate <= 0 && p.CorruptRate <= 0 &&
		(p.Byzantine == ByzNone || p.ByzantineRate <= 0)
}

// Decision is the plan's verdict for one exchange.
type Decision struct {
	// Down: the server is inside an outage window; the exchange times out.
	Down bool
	// Drop: the packet is lost in transit; the exchange times out.
	Drop bool
	// ExtraLatency is added to the link's round-trip time.
	ExtraLatency time.Duration
	// Truncate forces the TC bit and strips the response payload (UDP only).
	Truncate bool
	// Corrupt garbles the response wire bytes (UDP only).
	Corrupt bool
	// Byzantine applies the plan's adversarial answer mutation.
	Byzantine Mode
	// Entropy is the exchange's deterministic random word, for downstream
	// draws (e.g. which response bytes to corrupt).
	Entropy uint64
}

// Stats counts the fault decisions a State has made. Attempts counts every
// exchange evaluated — i.e. every query actually sent toward the server,
// whether or not it arrived — which is exactly the "leaked sends" measure
// the retry-amplification experiment reports.
type Stats struct {
	Attempts  int
	TimedOut  int // outage-window hits
	Dropped   int // loss
	Truncated int
	Corrupted int
	Byzantine int
}

// State evaluates a Plan one exchange at a time. It is the mutable half of
// fault injection and must be owned by a single clock domain; it is not
// safe for concurrent use (callers serialize, typically under the domain's
// lock).
type State struct {
	plan  Plan
	n     uint64
	stats Stats
}

// NewState creates the evaluation state for a plan, clamping rates into
// [0, 1].
func NewState(p Plan) *State {
	clamp := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 1 {
			*v = 1
		}
	}
	clamp(&p.LossRate)
	clamp(&p.SpikeRate)
	clamp(&p.TruncateRate)
	clamp(&p.CorruptRate)
	clamp(&p.ByzantineRate)
	return &State{plan: p}
}

// Plan returns the (clamped) plan under evaluation.
func (s *State) Plan() Plan { return s.plan }

// Stats returns a copy of the decision counters.
func (s *State) Stats() Stats { return s.stats }

// Draw streams: each probabilistic aspect of a decision reads its own
// deterministic stream so that enabling one fault type never perturbs the
// draws of another.
const (
	streamLoss = iota + 1
	streamJitter
	streamSpike
	streamTruncate
	streamCorrupt
	streamByzantine
)

// Decide evaluates the next exchange at simulated time now (UDP semantics:
// every fault type applies).
func (s *State) Decide(now time.Duration) Decision {
	return s.decide(now, false)
}

// DecideTCP evaluates the next exchange for a TCP-style transport: the
// stream is reliable, so loss, truncation, and corruption do not apply,
// but outages, latency, and byzantine answers still do.
func (s *State) DecideTCP(now time.Duration) Decision {
	return s.decide(now, true)
}

func (s *State) decide(now time.Duration, tcp bool) Decision {
	n := s.n
	s.n++
	s.stats.Attempts++
	d := Decision{Entropy: mix(uint64(s.plan.Seed), n, 0)}
	if s.plan.Down(now) {
		d.Down = true
		s.stats.TimedOut++
		return d
	}
	if !tcp && s.plan.LossRate > 0 && s.rand01(n, streamLoss) < s.plan.LossRate {
		d.Drop = true
		s.stats.Dropped++
		return d
	}
	if s.plan.JitterMax > 0 {
		d.ExtraLatency = time.Duration(s.rand01(n, streamJitter) * float64(s.plan.JitterMax))
	}
	if s.plan.SpikeRate > 0 && s.rand01(n, streamSpike) < s.plan.SpikeRate {
		d.ExtraLatency += s.plan.SpikeLatency
	}
	if !tcp && s.plan.TruncateRate > 0 && s.rand01(n, streamTruncate) < s.plan.TruncateRate {
		d.Truncate = true
		s.stats.Truncated++
	}
	if !tcp && s.plan.CorruptRate > 0 && s.rand01(n, streamCorrupt) < s.plan.CorruptRate {
		d.Corrupt = true
		s.stats.Corrupted++
	}
	if s.plan.Byzantine != ByzNone && s.plan.ByzantineRate > 0 &&
		s.rand01(n, streamByzantine) < s.plan.ByzantineRate {
		d.Byzantine = s.plan.Byzantine
		s.stats.Byzantine++
	}
	return d
}

// rand01 returns the deterministic uniform [0,1) draw for exchange n on a
// stream.
func (s *State) rand01(n uint64, stream uint64) float64 {
	return float64(mix(uint64(s.plan.Seed), n, stream)>>11) / (1 << 53)
}

// mix is SplitMix64 over (seed, ordinal, stream): a high-quality,
// allocation-free, platform-independent hash that gives every (exchange,
// stream) pair an independent 64-bit word.
func mix(seed, n, stream uint64) uint64 {
	z := seed + n*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Corrupt garbles b in place, deterministically in entropy: between one and
// three bytes (plus, half the time, a bit in the header area) are
// flipped. Used by the simulated network for CorruptRate faults and by the
// FuzzFaultedDecode harness to drive the wire decoder's error paths.
func Corrupt(entropy uint64, b []byte) {
	if len(b) == 0 {
		return
	}
	flips := 1 + int(entropy%3)
	for i := 0; i < flips; i++ {
		w := mix(entropy, uint64(i), 7)
		pos := int(w % uint64(len(b)))
		b[pos] ^= byte(w >> 8)
		if b[pos] == 0 && w&1 == 0 {
			b[pos] = byte(w>>16) | 1
		}
	}
	if entropy&(1<<40) != 0 && len(b) >= 12 {
		// Half the time also scramble a header byte: counts and flags are
		// where decoders are most easily confused.
		pos := int(mix(entropy, 99, 7) % 12)
		b[pos] ^= 0x55
	}
}

// transienter is implemented by errors that know whether they represent a
// transient transport condition. It is structural (no import needed), so
// the simulated network, the real transports, and the resolver can agree
// on retryability without depending on each other.
type transienter interface{ Transient() bool }

// IsTransient reports whether err is worth retrying: a transient transport
// condition such as packet loss, a timeout, or a garbled response. Errors
// may declare themselves by implementing `Transient() bool` anywhere in
// their chain; errors that do not are treated as transient, matching
// resolver practice (an unknown transport failure is retried, a typed
// permanent error such as "no route" is not). A nil error is not transient.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok {
			return t.Transient()
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			err = x.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range x.Unwrap() {
				if e != nil && !IsTransient(e) {
					return false
				}
			}
			return true
		default:
			return true
		}
	}
	return false
}

// ErrDeadlineExceeded marks a per-query resolution deadline expiry. It is
// permanent for the query: retrying cannot help once the budget is spent.
var ErrDeadlineExceeded = permanentError{errors.New("faults: query deadline exceeded")}

// permanentError wraps an error with Transient() == false.
type permanentError struct{ error }

// Transient implements the transient-classification interface.
func (permanentError) Transient() bool { return false }

// Unwrap exposes the underlying error to errors.Is.
func (e permanentError) Unwrap() error { return e.error }
