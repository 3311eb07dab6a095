// Command resolved runs the reproduction's validating, DLV-capable
// recursive resolver as a real DNS server over UDP+TCP, resolving against
// the synthetic internet (root, TLDs, SLD hosting, DLV registry). Point dig
// at it to watch look-aside behavior live:
//
//	resolved -listen 127.0.0.1:5300 -domains 5000 &
//	dig @127.0.0.1 -p 5300 <some-domain-from-the-population> A +ad
//
// Flags select the configuration scenario under test (trust anchor present
// or missing, look-aside on or off, remedies), so the paper's leakage
// conditions can be reproduced interactively. The serving tier exports its
// scorecard over the wire — `dig TXT _stats.resolved.invalid` — which is
// what cmd/dlvload scrapes around a trace replay. SIGINT/SIGTERM drains
// in-flight queries before exiting and prints the final scorecard.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/profile"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "resolved: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("resolved", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:5300", "UDP+TCP listen address")
	domains := fs.Int("domains", 5000, "synthetic population size")
	domainsFile := fs.String("domains-file", "", "ranked domain list (one per line or rank,domain CSV) to use instead of the synthetic population")
	seed := fs.Int64("seed", 1, "simulation seed")
	rootAnchor := fs.Bool("root-anchor", true, "install the root trust anchor (false reproduces the §4.3 misconfiguration)")
	lookaside := fs.Bool("dlv", true, "enable DNSSEC look-aside validation")
	remedy := fs.String("remedy", "", "client remedy: '', 'txt', or 'zbit'")
	hashed := fs.Bool("hashed", false, "privacy-preserving (hashed) registry")
	qnameMin := fs.Bool("qname-min", false, "RFC 7816 q-name minimization")
	padBlock := fs.Int("pad", 0, "pad responses to this block size (RFC 7830; 0 = off)")
	printTop := fs.Int("print-top", 10, "print the N most popular domains at startup")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"resolver instances serving queries concurrently")
	udpShards := fs.Int("udp-shards", defaultUDPShards(),
		"UDP listener shards on one address via SO_REUSEPORT (1 = single socket; >1 needs Linux, other platforms fall back to 1)")
	sharedInfra := fs.Bool("shared-infra", true,
		"pre-validate root/TLD/registry state once and share the sealed cache across instances")
	snapLoad := fs.String("snapshot-load", "",
		"boot the shared infra cache from this warm-state snapshot (falls back to live warm-up if stale/corrupt/mismatched)")
	snapSave := fs.String("snapshot-save", "",
		"write the warmed shared infra cache (plus signed-zone state) to this snapshot file")
	drain := fs.Duration("drain", 5*time.Second,
		"graceful-shutdown deadline: how long SIGINT/SIGTERM waits for in-flight queries")
	maxInflight := fs.Int("max-inflight", 0,
		"overload protection: admission window across both transports (0 = unprotected)")
	queueTarget := fs.Duration("queue-target", 20*time.Millisecond,
		"overload protection: shed an admitted query queued past this deadline (CoDel-style target)")
	clientQPS := fs.Float64("client-qps", 0,
		"overload protection: per-client token-bucket rate limit in q/s (0 = off; enables protection on its own)")
	verbose := fs.Bool("v", false, "log every query observed at the DLV registry")
	faultSeed := fs.Int64("faultseed", 0, "fault-schedule seed (0 = -seed)")
	loss := fs.Float64("loss", 0, "drop probability on the DLV registry link (0 = healthy)")
	dlvOutage := fs.Bool("dlv-outage", false, "take the DLV registry down for the whole run (the retired-registry scenario)")
	breaker := fs.Bool("breaker", false, "serve with the resilient resolver and its DLV circuit breaker")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run (set-up included) to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit, after the drain and a forced GC")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		stop, err := profile.StartCPU(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}

	var pop *dataset.Population
	if *domainsFile != "" {
		f, err := os.Open(*domainsFile)
		if err != nil {
			return err
		}
		pop, err = dataset.LoadRanked(f, dataset.DefaultRates(), *seed)
		_ = f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("resolved: loaded %d domains from %s\n", len(pop.Domains), *domainsFile)
	} else {
		var err error
		pop, err = dataset.AlexaLike(dataset.PopulationConfig{Size: *domains, Seed: *seed})
		if err != nil {
			return err
		}
	}
	u, err := universe.Build(universe.Options{
		Seed:           *seed,
		Population:     pop,
		Extra:          dataset.SecureDomains(),
		RegistryHashed: *hashed,
		TXTRemedy:      *remedy == "txt",
		ZBitRemedy:     *remedy == "zbit",
	})
	if err != nil {
		return err
	}
	if *verbose {
		u.Net.AddTap(func(ev simnet.Event) {
			if ev.DstRole == simnet.RoleDLV {
				fmt.Printf("DLV registry observed: %s %s -> %s\n",
					ev.Question.Name, ev.Question.Type, ev.RCode)
			}
		})
	}

	cfg := u.ResolverConfig(*rootAnchor, *lookaside)
	cfg.QNameMinimization = *qnameMin
	cfg.PaddingBlock = *padBlock
	switch *remedy {
	case "":
	case "txt":
		cfg.Lookaside.Remedy = resolver.RemedyTXT
	case "zbit":
		cfg.Lookaside.Remedy = resolver.RemedyZBit
	default:
		return fmt.Errorf("unknown remedy %q", *remedy)
	}
	var plan *faults.Plan
	if *loss > 0 || *dlvOutage {
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		p := faults.Plan{Seed: fseed, LossRate: *loss}
		if *dlvOutage {
			p.Outages = []faults.Window{{Start: 0, End: 1 << 62}}
		}
		plan = &p
		fmt.Printf("resolved: fault plan on registry link: loss=%.2f outage=%t seed=%d\n",
			*loss, *dlvOutage, fseed)
	}
	if *breaker {
		cfg.Resilience = &resolver.Resilience{
			TCPFallback: true,
			Breaker:     &faults.BreakerConfig{},
		}
	}
	var gate *overload.Controller
	if *maxInflight > 0 || *clientQPS > 0 {
		gate = overload.New(overload.Config{
			MaxInFlight: *maxInflight,
			Exec:        *workers,
			QueueTarget: *queueTarget,
			ClientQPS:   *clientQPS,
		})
	}
	svc, err := serve.Build(u, cfg, serve.Options{
		Workers: *workers, SharedInfra: *sharedInfra, Plan: plan,
		SnapshotLoad: *snapLoad, SnapshotSave: *snapSave,
		Overload: gate,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "resolved: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	if *memProfile != "" {
		// Deferred after svc.Close, so it runs before it: the profile shows
		// the serving tier and its universe as they stood when serving ended.
		defer func() {
			if err := profile.WriteHeap(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "resolved: %v\n", err)
			}
		}()
	}
	fmt.Printf("resolved: serving tier ready in %v (boot=%s)\n",
		svc.BootWall().Round(time.Millisecond), svc.BootMode())

	srv, tcpSrv, err := udptransport.ListenPair(*listen, svc, *udpShards)
	if err != nil {
		return err
	}
	if gate != nil {
		srv.SetGate(gate)
		tcpSrv.SetGate(gate)
		fmt.Printf("resolved: overload protection on (max-inflight=%d, queue-target=%s, client-qps=%g)\n",
			*maxInflight, *queueTarget, *clientQPS)
	} else {
		srv.SetWorkers(*workers)
	}
	svc.AttachTransports(srv, tcpSrv)
	fmt.Printf("resolved: serving on %s udp+tcp (population=%d, dlv=%t, root-anchor=%t, remedy=%q, workers=%d, udp-shards=%d)\n",
		srv.Addr(), len(pop.Domains), *lookaside, *rootAnchor, *remedy, *workers, srv.Shards())
	fmt.Printf("registry deposits: %d; secured test domains: secure00.edu ... secure44.edu\n",
		u.Registry.DepositCount())
	fmt.Printf("stats surface: dig @%s TXT %s\n", srv.Addr(), serve.StatsName)
	if *printTop > 0 {
		fmt.Println("sample domains to query:")
		for _, d := range pop.Top(*printTop) {
			marker := ""
			if d.Signed {
				marker = " (signed)"
			}
			fmt.Printf("  %s%s\n", d.Name, marker)
		}
	}

	udpDone := make(chan error, 1)
	tcpDone := make(chan error, 1)
	go func() { udpDone <- srv.Serve() }()
	go func() { tcpDone <- tcpSrv.Serve() }()
	sig := make(chan os.Signal, 2) // room for a second signal during drain
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-udpDone:
		// One transport failed: tear down the other and collect its exit
		// too, so neither Serve goroutine is abandoned.
		_ = tcpSrv.Close()
		return joinServeErrors(err, <-tcpDone)
	case err := <-tcpDone:
		_ = srv.Close()
		return joinServeErrors(err, <-udpDone)
	case s := <-sig:
		fmt.Printf("\nresolved: %s — draining in-flight queries (deadline %s)\n", s, *drain)
		// Stop accepting on both transports, then wait for in-flight
		// handlers to finish; a second deadline overrun is reported, not
		// waited out twice. The drain runs off the signal path so a second
		// SIGINT/SIGTERM can cut it short.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			udpErr := srv.Shutdown(*drain)
			tcpErr := tcpSrv.Shutdown(*drain)
			<-udpDone
			<-tcpDone
			if udpErr == udptransport.ErrDrainTimeout || tcpErr == udptransport.ErrDrainTimeout {
				fmt.Println("resolved: drain deadline exceeded; some queries were cut off")
			}
		}()
		select {
		case <-drained:
			fmt.Println(svc.Snapshot().Render("final serving-tier scorecard"))
			return nil
		case s2 := <-sig:
			fmt.Printf("resolved: %s during drain — forcing immediate exit\n", s2)
			_ = srv.Close()
			_ = tcpSrv.Close()
			return fmt.Errorf("forced exit on second %s", s2)
		}
	}
}

// defaultUDPShards picks the listener shard count: one per core up to 8 —
// past that the resolver pool, not the read loops, is the bottleneck.
func defaultUDPShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// joinServeErrors reports why the transports exited: the primary error is
// the one that triggered the teardown; the secondary is dropped when it is
// just the ErrClosed our own Close provoked.
func joinServeErrors(primary, secondary error) error {
	if errors.Is(secondary, udptransport.ErrClosed) {
		secondary = nil
	}
	return errors.Join(primary, secondary)
}
