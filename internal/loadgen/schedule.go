// Package loadgen is the DITL-scale trace-replay load generator: it replays
// the paper's §6.2.3 recursive-resolver workload (92.7M queries at
// 160k–360k queries/minute from thousands of stub clients) against a live
// resolved over real UDP with TC→TCP fallback, and reports the client half
// of the serving-tier scorecard — qps, streaming latency percentiles,
// timeout/retry/SERVFAIL/truncation counts. cmd/dlvload is the CLI.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// Event is one scheduled query: a client issues a lookup of a population
// name at a trace-time offset.
type Event struct {
	// At is the offset from trace start (minute granularity from the
	// trace, paced evenly with seeded jitter inside each minute).
	At time.Duration
	// Client is the simulated stub client issuing the query.
	Client int32
	// Name is the population index of the queried domain (Zipf-sampled:
	// recursive workloads reuse popular names heavily).
	Name int32
}

// ScheduleConfig parameterizes the deterministic query schedule.
type ScheduleConfig struct {
	// Clients is the number of distinct simulated stub clients.
	Clients int
	// PopSize is the population size names are sampled from (>= 2).
	PopSize int
	// Seed drives every random choice: per-minute jitter, client
	// assignment, and name sampling. Same seed + same trace = identical
	// schedule, byte for byte.
	Seed int64
	// MaxQueries caps the schedule length; 0 replays the whole trace.
	MaxQueries int64
	// Uniform samples names uniformly instead of Zipf — a cache-busting
	// flood rather than a recursive workload. This is the adversarial
	// shape overload storms take in the wild: Zipf replay mostly hits the
	// resolver's answer cache, while uniform sampling over a large
	// population forces real resolution work on nearly every query.
	Uniform bool
}

// Schedule streams the deterministic query schedule derived from a
// per-minute trace. It materializes one minute at a time, so the paper's
// full 92.7M-query trace replays in constant memory.
type Schedule struct {
	cfg  ScheduleConfig
	next func() (int, error)

	minute  int
	events  []Event
	pos     int
	emitted int64
}

// NewSchedule builds a schedule over a per-minute query-count source, which
// returns io.EOF at end of trace. A source that never ends makes an endless
// schedule of seeded names.
func NewSchedule(cfg ScheduleConfig, next func() (int, error)) (*Schedule, error) {
	if cfg.Clients <= 0 {
		return nil, errors.New("loadgen: schedule needs at least one client")
	}
	if cfg.PopSize < 2 {
		return nil, fmt.Errorf("loadgen: population size %d too small to sample", cfg.PopSize)
	}
	if next == nil {
		return nil, errors.New("loadgen: nil trace source")
	}
	return &Schedule{cfg: cfg, next: next}, nil
}

// sliceSource is the schedule source over an in-memory trace.
func sliceSource(perMinute []int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= len(perMinute) {
			return 0, io.EOF
		}
		q := perMinute[i]
		i++
		return q, nil
	}
}

// Next returns the next scheduled query in time order, or io.EOF when the
// trace (or MaxQueries cap) is exhausted.
func (s *Schedule) Next() (Event, error) {
	if s.cfg.MaxQueries > 0 && s.emitted >= s.cfg.MaxQueries {
		return Event{}, io.EOF
	}
	for s.pos >= len(s.events) {
		q, err := s.next()
		if err != nil {
			return Event{}, err
		}
		s.fillMinute(q)
		s.minute++
	}
	ev := s.events[s.pos]
	s.pos++
	s.emitted++
	return ev, nil
}

// fillMinute regenerates the event buffer for one trace minute: q queries
// at evenly spaced slots with seeded jitter (order-preserving: jitter never
// crosses a slot boundary), each assigned a client and a Zipf-sampled name
// from a sub-stream seeded by (seed, minute) — so minute k's events are
// identical no matter how much of the trace streamed before it.
func (s *Schedule) fillMinute(q int) {
	s.pos = 0
	if q <= 0 {
		s.events = s.events[:0]
		return
	}
	if cap(s.events) < q {
		s.events = make([]Event, q)
	}
	s.events = s.events[:q]
	rng := rand.New(rand.NewSource(mix64(uint64(s.cfg.Seed), uint64(s.minute))))
	sample := func() int32 { return int32(rng.Intn(s.cfg.PopSize)) }
	if !s.cfg.Uniform {
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(s.cfg.PopSize-1))
		sample = func() int32 { return int32(zipf.Uint64()) }
	}
	base := time.Duration(s.minute) * time.Minute
	slot := time.Minute / time.Duration(q)
	for i := range s.events {
		jitter := time.Duration(rng.Float64() * float64(slot))
		s.events[i] = Event{
			At:     base + time.Duration(i)*slot + jitter,
			Client: int32(rng.Intn(s.cfg.Clients)),
			Name:   sample(),
		}
	}
}

// mix64 is splitmix64's finalizer over a seed/counter pair — the same
// construction internal/faults uses for per-stream draws.
func mix64(a, b uint64) int64 {
	x := a ^ (b * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}
