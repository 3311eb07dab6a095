// Command dlvd serves a DLV registry zone over real UDP: a signed zone of
// deposited look-aside records with NSEC (or NSEC3) denials, exactly the
// server side the paper measures. Combine with dig to watch what a registry
// operator can observe:
//
//	dlvd -listen 127.0.0.1:5301 -deposits 200 &
//	dig @127.0.0.1 -p 5301 dlv.isc.org AXFR            # every deposit
//	dig @127.0.0.1 -p 5301 <deposit>.dlv.isc.org DLV
//
// With -hashed it runs the paper's privacy-preserving variant, where only
// crypto_hash(domain) labels ever appear on the wire.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, func(netip.AddrPort) {}); err != nil {
		fmt.Fprintf(os.Stderr, "dlvd: %v\n", err)
		os.Exit(1)
	}
}

// run serves the registry until ctx is done. ready gets the address both
// listeners are bound to once they serve.
func run(ctx context.Context, args []string, stdout io.Writer, ready func(netip.AddrPort)) error {
	fs := flag.NewFlagSet("dlvd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:5301", "UDP listen address")
	zoneName := fs.String("zone", "dlv.isc.org", "registry zone name")
	deposits := fs.Int("deposits", 200, "number of synthetic deposits")
	seed := fs.Int64("seed", 1, "seed for keys and deposits")
	hashed := fs.Bool("hashed", false, "privacy-preserving (hashed) deposits")
	nsec3 := fs.Bool("nsec3", false, "serve NSEC3 denials (defeats aggressive caching)")
	empty := fs.Bool("empty", false, "phase-out mode: keep serving, hold no deposits")
	if err := fs.Parse(args); err != nil {
		return err
	}

	apex, err := dns.MakeName(*zoneName)
	if err != nil {
		return err
	}
	reg, err := dlv.NewRegistry(dlv.Config{
		Apex:      apex,
		Algorithm: dnssec.AlgECDSAP256, // a public-facing daemon signs for real
		Rand:      rand.New(rand.NewSource(*seed)),
		Inception: 0, Expiration: 1 << 31,
		Hashed: *hashed, NSEC3: *nsec3, Empty: *empty,
	})
	if err != nil {
		return err
	}

	if !*empty {
		// Deposit every signed population domain until the target count;
		// oversize the population so the target is always reachable.
		pop, err := dataset.AlexaLike(dataset.PopulationConfig{
			Size: *deposits*2 + 64, Seed: *seed,
			Rates: dataset.DefaultRatesWithDeposit(0.9),
		})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed + 1))
		added := 0
		for i := range pop.Domains {
			if added >= *deposits {
				break
			}
			d := &pop.Domains[i]
			if !d.Signed {
				continue
			}
			key, err := dnssec.GenerateKey(dnssec.AlgECDSAP256,
				dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
			if err != nil {
				return err
			}
			rec, err := dnssec.MakeDLV(d.Name, key.Public(), dnssec.DigestSHA256)
			if err != nil {
				return err
			}
			if err := reg.Deposit(d.Name, rec); err != nil {
				return err
			}
			added++
		}
		if added < *deposits {
			fmt.Fprintf(os.Stderr, "dlvd: only %d of %d requested deposits available\n", added, *deposits)
		}
	}

	srv, err := authserver.New(authserver.Config{Name: *zoneName}, reg.Zone())
	if err != nil {
		return err
	}
	udp, tcp, err := udptransport.ListenPair(*listen, srv, 1)
	if err != nil {
		return err
	}
	go func() { _ = tcp.Serve() }()
	defer func() { _ = tcp.Close() }()
	anchor, err := reg.TrustAnchorDS()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dlvd: serving %s on %s udp+tcp (deposits=%d hashed=%t nsec3=%t empty=%t)\n",
		apex, udp.Addr(), reg.DepositCount(), *hashed, *nsec3, *empty)
	fmt.Fprintf(stdout, "trust anchor: %s DS %s\n", apex, anchor)

	done := make(chan error, 1)
	go func() { done <- udp.Serve() }()
	ready(udp.AddrPort())
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "\ndlvd: shutting down")
		_ = udp.Close()
		<-done
		return nil
	}
}
