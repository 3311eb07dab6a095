// Command dlvload replays the paper's DITL-shaped query trace (§6.2.3:
// 92.7M queries at 160k–360k q/min) against a running resolved over real
// UDP with TC→TCP fallback, simulating thousands of distinct stub clients
// on a deterministic schedule. It reports the client half of the
// serving-tier scorecard — qps, p50/p95/p99/p99.9 latency, timeout/retry/
// SERVFAIL/truncation counts — and scrapes resolved's over-the-wire stats
// surface before and after the run, so the server-side delta (packet-cache
// and infra-cache hit rates, in-flight depth, per-transport counters)
// covers exactly this run.
//
//	resolved -listen 127.0.0.1:5300 -domains 100000 -workers 8 &
//	dlvload  -server 127.0.0.1:5300 -domains 100000 -clients 1000 \
//	         -scale 100 -compress 600
//
// The -domains/-seed flags must match the server's so both sides name the
// same population. Same trace + same -sched-seed replays the identical
// query schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/loadgen"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dlvload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlvload", flag.ContinueOnError)
	server := fs.String("server", "127.0.0.1:5300", "resolved address (UDP and TCP on the same port)")
	domains := fs.Int("domains", 5000, "population size — must match the server's -domains")
	seed := fs.Int64("seed", 1, "population seed — must match the server's -seed")
	traceFile := fs.String("trace", "", "replay this trace file (tracegen's minute,queries,cumulative CSV); empty generates one")
	minutes := fs.Int("minutes", 10, "generated trace length in minutes (with no -trace)")
	traceSeed := fs.Int64("trace-seed", 1, "generated trace seed")
	scale := fs.Int("scale", 1000, "generated trace rate divisor (1 = the paper's 160k-360k q/min)")
	clients := fs.Int("clients", 1000, "distinct simulated stub clients")
	schedSeed := fs.Int64("sched-seed", 1, "schedule seed: jitter, client assignment, name sampling")
	mode := fs.String("mode", "open", "pacing: 'open' (follow the trace clock) or 'closed' (max throughput)")
	compress := fs.Float64("compress", 60, "open loop: trace-time/wall-time factor (60 = replay each trace minute in 1s)")
	window := fs.Int("window", 256, "bounded in-flight window: concurrent sockets, one outstanding query each")
	timeout := fs.Duration("timeout", 2*time.Second, "per-attempt query timeout")
	retries := fs.Int("retries", 1, "re-sends after a timeout before counting the query lost")
	maxQueries := fs.Int64("max-queries", 0, "stop after this many queries (0 = whole trace)")
	overdrive := fs.Int("overdrive", 0,
		"offered load in q/s: replace the trace with a flat cache-busting storm at this rate for -minutes wall seconds (forces open loop and uniform name sampling; for overload testing)")
	do := fs.Bool("do", true, "set the EDNS DO (DNSSEC OK) bit")
	stats := fs.Bool("stats", true, "scrape the server's stats surface before/after and print the delta")
	quiet := fs.Bool("q", false, "suppress per-minute progress lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, err := netip.ParseAddrPort(*server)
	if err != nil {
		return fmt.Errorf("bad -server: %w", err)
	}

	// The name table regenerates the server's population: AlexaLike is
	// deterministic in (size, seed), so index i names the same domain on
	// both sides of the wire.
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: *domains, Seed: *seed})
	if err != nil {
		return err
	}
	names := make([]dns.Name, len(pop.Domains))
	for i, d := range pop.Domains {
		names[i] = d.Name
	}

	var perMin []int
	if *overdrive > 0 {
		// A multi-shard server swallows far more concurrent datagrams than
		// one read loop, so the default window would self-throttle the
		// generator before the target rate is reached. Unless -window was
		// given explicitly, scale it with the offered rate (~40ms of load
		// in flight), capped at 4096 sockets.
		windowSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "window" {
				windowSet = true
			}
		})
		if !windowSet {
			if w := *overdrive / 25; w > *window {
				if w > 4096 {
					w = 4096
				}
				*window = w
				fmt.Fprintf(out, "dlvload: overdrive window auto-scaled to %d (pass -window to pin it)\n", *window)
			}
		}
		// A flat storm: every "trace minute" carries overdrive queries and
		// replays in one wall second (compress 60), so the offered load is
		// exactly -overdrive q/s for -minutes wall seconds. Open loop: the
		// generator keeps pace even when the server sheds or stalls, which
		// is the point of an overload test.
		perMin = make([]int, *minutes)
		for i := range perMin {
			perMin[i] = *overdrive
		}
		*mode = "open"
		*compress = 60
		fmt.Fprintf(out, "dlvload: overdrive storm: %d q/s offered for %ds\n", *overdrive, *minutes)
	} else if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		trace, err := dataset.ReadTrace(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", *traceFile, err)
		}
		perMin = trace.PerMinute
		fmt.Fprintf(out, "dlvload: replaying trace %s\n", *traceFile)
	} else {
		trace, err := dataset.GenerateTrace(dataset.TraceConfig{
			Minutes: *minutes, Seed: *traceSeed,
			MinRate: 160_000, MaxRate: 360_000, Scale: *scale,
		})
		if err != nil {
			return err
		}
		perMin = trace.PerMinute
		fmt.Fprintf(out, "dlvload: generated %d-minute trace (seed %d, scale 1/%d, %d queries)\n",
			*minutes, *traceSeed, *scale, trace.Total())
	}

	c := &udptransport.Client{Timeout: *timeout}
	var before serve.Snapshot
	if *stats {
		before, err = serve.FetchSnapshot(c, addr)
		if err != nil {
			return fmt.Errorf("scraping server stats (rerun with -stats=false against servers without the surface): %w", err)
		}
		mode := "live-warm"
		if before.BootMode == 1 {
			mode = "snapshot"
		}
		fmt.Fprintf(out, "dlvload: server booted in %dms (%s)\n", before.BootMS, mode)
	}

	m, err := loadgen.ParseMode(*mode)
	if err != nil {
		return err
	}
	cfg := loadgen.Config{
		Server: addr,
		Schedule: loadgen.ScheduleConfig{
			Clients: *clients, PopSize: len(names), Seed: *schedSeed, MaxQueries: *maxQueries,
			Uniform: *overdrive > 0,
		},
		PerMinute: perMin,
		Names:     func(i int) dns.Name { return names[i] },
		DNSSECOK:  *do,
		Mode:      m,
		Compress:  *compress,
		Workers:   *window,
		Timeout:   *timeout,
		Retries:   *retries,
	}
	if !*quiet {
		cfg.Progress = func(minute int, sent int64) {
			fmt.Fprintf(os.Stderr, "dlvload: trace minute %d done, %d queries sent\n", minute, sent)
		}
	}
	runner, err := loadgen.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep.Render())

	if *stats {
		after, err := serve.FetchSnapshot(c, addr)
		if err != nil {
			return fmt.Errorf("scraping server stats after the run: %w", err)
		}
		delta := after.Minus(before)
		fmt.Fprintln(out, delta.Render("server-side delta (this run)"))
	}
	return nil
}
