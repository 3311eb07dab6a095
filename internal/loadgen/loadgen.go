package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/metrics"
)

// Mode selects how the replay is paced.
type Mode int

const (
	// ModeOpen replays the trace open-loop: queries launch at their
	// scheduled times (scaled by Compress) whether or not earlier ones have
	// completed, up to the bounded in-flight window. Overload shows up as
	// schedule lateness, exactly like a real resolver falling behind its
	// arrival process.
	ModeOpen Mode = iota
	// ModeClosed replays closed-loop: each worker issues its next query as
	// soon as the previous one completes, ignoring schedule times. This
	// measures the serving tier's maximum sustainable throughput.
	ModeClosed
)

// ParseMode maps the CLI spelling to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "open":
		return ModeOpen, nil
	case "closed":
		return ModeClosed, nil
	}
	return 0, fmt.Errorf("loadgen: unknown mode %q (want open or closed)", s)
}

func (m Mode) String() string {
	if m == ModeOpen {
		return "open"
	}
	return "closed"
}

// Config parameterizes one replay run.
type Config struct {
	// Server is the resolver under test (UDP and TCP on the same port).
	Server netip.AddrPort
	// Schedule shapes the deterministic query schedule.
	Schedule ScheduleConfig
	// PerMinute is the trace: the query count of each minute.
	PerMinute []int
	// Names maps a population index to the domain to query.
	Names func(int) dns.Name
	// DNSSECOK sets the EDNS DO bit on every query.
	DNSSECOK bool

	// Mode is the pacing discipline.
	Mode Mode
	// Compress divides trace time to get wall time in open-loop mode: 60
	// replays each trace minute in one wall second. Default 1 (real time).
	Compress float64
	// Workers is the bounded in-flight window: each worker keeps at most
	// one query outstanding, so at most Workers queries are on the wire.
	// Workers also own the sockets — each holds one connected UDP socket
	// (and a lazy TCP connection for truncation fallback), acting as a
	// cluster of stub clients behind distinct source ports. Default 64.
	Workers int
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// Retries is how many times a timed-out query is re-sent (same ID, so
	// a late answer to an earlier attempt still completes the query).
	Retries int

	// Progress, when non-nil, is called from the dispatcher at every trace
	// minute boundary with the minute just finished and total sent so far.
	Progress func(minute int, sent int64)
}

// Counters are the client-side outcome tallies of a run.
type Counters struct {
	// Sent counts queries dispatched; Completed counts those that got any
	// well-formed response (whatever the RCode).
	Sent      int64
	Completed int64
	// Timeouts counts queries abandoned after all attempts; Retries counts
	// re-sent attempts.
	Timeouts int64
	Retries  int64
	// Truncated counts TC=1 UDP responses; TCPFallbacks counts the TCP
	// retries they triggered; TCPErrors counts fallbacks that then failed.
	Truncated    int64
	TCPFallbacks int64
	TCPErrors    int64
	// RCode tallies over completed queries. Refused counts queries the
	// server shed (REFUSED — the overload controller's cheap answer);
	// these complete but do not count toward goodput or the latency
	// histogram.
	ServFails   int64
	NXDomains   int64
	Refused     int64
	OtherRCodes int64
	// Stale counts datagrams read whose ID matched no outstanding query
	// (late answers to attempts already abandoned).
	Stale int64
}

// Plus returns the field-wise sum.
func (c Counters) Plus(o Counters) Counters {
	return Counters{
		Sent:         c.Sent + o.Sent,
		Completed:    c.Completed + o.Completed,
		Timeouts:     c.Timeouts + o.Timeouts,
		Retries:      c.Retries + o.Retries,
		Truncated:    c.Truncated + o.Truncated,
		TCPFallbacks: c.TCPFallbacks + o.TCPFallbacks,
		TCPErrors:    c.TCPErrors + o.TCPErrors,
		ServFails:    c.ServFails + o.ServFails,
		NXDomains:    c.NXDomains + o.NXDomains,
		Refused:      c.Refused + o.Refused,
		OtherRCodes:  c.OtherRCodes + o.OtherRCodes,
		Stale:        c.Stale + o.Stale,
	}
}

// Runner replays a schedule against a live server.
type Runner struct {
	cfg Config
}

// New validates the config and returns a ready runner.
func New(cfg Config) (*Runner, error) {
	if !cfg.Server.IsValid() {
		return nil, errors.New("loadgen: no server address")
	}
	if cfg.Names == nil {
		return nil, errors.New("loadgen: nil name table")
	}
	if cfg.Compress <= 0 {
		cfg.Compress = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	return &Runner{cfg: cfg}, nil
}

// dispatch is one scheduled query in flight to a worker; due is its
// wall-clock launch target (zero in closed-loop mode).
type dispatch struct {
	ev  Event
	due time.Time
}

// Run replays the schedule until the trace ends, the MaxQueries cap hits,
// or ctx is cancelled (the report then covers what ran). Queries of one
// client always go to the same worker, preserving per-client ordering.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	cfg := r.cfg
	sched, err := NewSchedule(cfg.Schedule, sliceSource(cfg.PerMinute))
	if err != nil {
		return nil, err
	}

	workers := make([]*worker, cfg.Workers)
	chans := make([]chan dispatch, cfg.Workers)
	var wg sync.WaitGroup
	for i := range workers {
		w, err := newWorker(&cfg)
		if err != nil {
			for _, prev := range workers[:i] {
				prev.close()
			}
			return nil, err
		}
		workers[i] = w
		chans[i] = make(chan dispatch, 64)
		wg.Add(1)
		go func(w *worker, ch chan dispatch) {
			defer wg.Done()
			for d := range ch {
				w.doQuery(d)
			}
		}(w, chans[i])
	}

	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	var sent int64
	minute := -1
	runErr := func() error {
		for {
			ev, err := sched.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("loadgen: reading trace: %w", err)
			}
			if m := int(ev.At / time.Minute); m != minute {
				if minute >= 0 && cfg.Progress != nil {
					cfg.Progress(minute, sent)
				}
				minute = m
			}
			d := dispatch{ev: ev}
			if cfg.Mode == ModeOpen {
				d.due = start.Add(time.Duration(float64(ev.At) / cfg.Compress))
				if wait := time.Until(d.due); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
						return ctx.Err()
					}
				}
			}
			select {
			case chans[int(ev.Client)%cfg.Workers] <- d:
				sent++
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}()
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if minute >= 0 && cfg.Progress != nil {
		cfg.Progress(minute, sent)
	}
	wall := time.Since(start)

	rep := &Report{
		Mode:     cfg.Mode,
		Clients:  cfg.Schedule.Clients,
		Workers:  cfg.Workers,
		Seed:     cfg.Schedule.Seed,
		Wall:     wall,
		Latency:  metrics.NewHistogram(),
		Fallback: metrics.NewHistogram(),
	}
	for _, w := range workers {
		rep.Counters = rep.Counters.Plus(w.c)
		rep.Latency.Merge(w.lat)
		rep.Fallback.Merge(w.fb)
		if w.maxLate > rep.MaxLateness {
			rep.MaxLateness = w.maxLate
		}
		w.close()
	}
	if wall > 0 {
		rep.QPS = float64(rep.Completed) / wall.Seconds()
		rep.GoodputQPS = float64(rep.Goodput()) / wall.Seconds()
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return rep, runErr
	}
	return rep, nil
}

// worker is one replay lane: a connected UDP socket, a lazy TCP fallback
// connection, and single-threaded metric state. All clients whose index
// hashes to this worker issue their queries through it, in order.
type worker struct {
	cfg *Config
	udp net.Conn
	tcp net.Conn
	buf [4096]byte

	idSeq   uint16
	c       Counters
	lat     *metrics.Histogram
	fb      *metrics.Histogram
	maxLate time.Duration
}

func newWorker(cfg *Config) (*worker, error) {
	conn, err := net.Dial("udp", cfg.Server.String())
	if err != nil {
		return nil, fmt.Errorf("loadgen: dial %s: %w", cfg.Server, err)
	}
	return &worker{
		cfg: cfg,
		udp: conn,
		lat: metrics.NewHistogram(),
		fb:  metrics.NewHistogram(),
	}, nil
}

func (w *worker) close() {
	_ = w.udp.Close()
	if w.tcp != nil {
		_ = w.tcp.Close()
		w.tcp = nil
	}
}

// doQuery runs one scheduled query to completion: UDP with per-attempt
// timeout and retry, then TCP fallback if the response came back truncated.
// Latency is measured from the first send to the final response, so a
// fallback's total includes both the truncated UDP leg and the TCP leg;
// the TCP leg alone is additionally recorded in the fallback histogram.
func (w *worker) doQuery(d dispatch) {
	name := w.cfg.Names(int(d.ev.Name))
	w.idSeq++
	q := dns.NewQuery(w.idSeq, name, dns.TypeA, w.cfg.DNSSECOK)
	wire, err := q.Encode()
	if err != nil {
		// Population names always encode; treat failure as a timeout so it
		// is visible rather than silently dropped.
		w.c.Sent++
		w.c.Timeouts++
		return
	}

	start := time.Now()
	if !d.due.IsZero() {
		if late := start.Sub(d.due); late > w.maxLate {
			w.maxLate = late
		}
	}
	w.c.Sent++

	resp := w.exchangeUDP(wire, q.Header.ID)
	if resp == nil {
		w.c.Timeouts++
		return
	}
	if resp.Header.TC {
		w.c.Truncated++
		w.c.TCPFallbacks++
		fbStart := time.Now()
		tcpResp, err := w.exchangeTCP(wire, q.Header.ID)
		if err != nil {
			w.c.TCPErrors++
			w.c.Timeouts++
			return
		}
		w.fb.Record(time.Since(fbStart))
		resp = tcpResp
	}
	if resp.Header.RCode == dns.RCodeRefused {
		// A shed: the server answered, but with its overload REFUSED. Keep
		// it out of the latency histogram so percentiles describe real
		// resolutions, not microsecond-fast rejections.
		w.c.Completed++
		w.c.Refused++
		return
	}
	w.lat.Record(time.Since(start))
	w.c.Completed++
	switch resp.Header.RCode {
	case dns.RCodeNoError:
	case dns.RCodeServFail:
		w.c.ServFails++
	case dns.RCodeNXDomain:
		w.c.NXDomains++
	default:
		w.c.OtherRCodes++
	}
}

// exchangeUDP sends the query and reads until a response with the matching
// ID arrives, retrying on per-attempt timeout. Returns nil when every
// attempt timed out. Stale datagrams (IDs of abandoned earlier queries on
// this socket) are counted and skipped; because retries reuse the query's
// ID, a late answer to attempt N completes attempt N+1.
func (w *worker) exchangeUDP(wire []byte, id uint16) *dns.Message {
	for attempt := 0; attempt <= w.cfg.Retries; attempt++ {
		if attempt > 0 {
			w.c.Retries++
		}
		if _, err := w.udp.Write(wire); err != nil {
			continue
		}
		deadline := time.Now().Add(w.cfg.Timeout)
		if err := w.udp.SetReadDeadline(deadline); err != nil {
			return nil
		}
		for {
			n, err := w.udp.Read(w.buf[:])
			if err != nil {
				break // timeout (or socket error): next attempt
			}
			resp, err := dns.DecodeMessage(w.buf[:n])
			if err != nil {
				continue // garbage datagram
			}
			if resp.Header.ID != id {
				w.c.Stale++
				continue
			}
			return resp
		}
	}
	return nil
}

// exchangeTCP completes a truncated query over TCP (RFC 7766), keeping one
// connection per worker across fallbacks. A dead cached connection (the
// server idles them out after 30s) gets one transparent redial.
func (w *worker) exchangeTCP(wire []byte, id uint16) (*dns.Message, error) {
	redialed := w.tcp == nil
	for {
		if w.tcp == nil {
			conn, err := net.DialTimeout("tcp", w.cfg.Server.String(), w.cfg.Timeout)
			if err != nil {
				return nil, err
			}
			w.tcp = conn
		}
		resp, err := w.tcpRoundTrip(wire, id)
		if err == nil {
			return resp, nil
		}
		_ = w.tcp.Close()
		w.tcp = nil
		if redialed {
			return nil, err
		}
		redialed = true
	}
}

// tcpRoundTrip writes one length-framed query and reads the framed reply.
func (w *worker) tcpRoundTrip(wire []byte, id uint16) (*dns.Message, error) {
	if err := w.tcp.SetDeadline(time.Now().Add(w.cfg.Timeout)); err != nil {
		return nil, err
	}
	var frame [2]byte
	binary.BigEndian.PutUint16(frame[:], uint16(len(wire)))
	if _, err := w.tcp.Write(frame[:]); err != nil {
		return nil, err
	}
	if _, err := w.tcp.Write(wire); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(w.tcp, frame[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(frame[:]))
	if n == 0 {
		return nil, errors.New("loadgen: zero-length tcp frame")
	}
	// TCP answers routinely exceed the UDP buffer — that is why the query
	// fell back — so frames get their own allocation.
	pkt := make([]byte, n)
	if _, err := io.ReadFull(w.tcp, pkt); err != nil {
		return nil, err
	}
	resp, err := dns.DecodeMessage(pkt)
	if err != nil {
		return nil, err
	}
	if resp.Header.ID != id {
		return nil, fmt.Errorf("loadgen: tcp response ID %d != %d", resp.Header.ID, id)
	}
	return resp, nil
}
