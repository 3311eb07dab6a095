package main

import (
	"bytes"
	"context"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

// TestServeREADMEFlow runs the README's registry flow against the real
// daemon: an apex AXFR over TCP mirrors every deposit, and a DLV query over
// UDP for one of them gets its DLV RRset.
func TestServeREADMEFlow(t *testing.T) {
	const deposits = 20
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	ready := make(chan netip.AddrPort, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-deposits", strconv.Itoa(deposits)}, &out,
			func(a netip.AddrPort) { ready <- a })
	}()
	var addr netip.AddrPort
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("dlvd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("dlvd never served")
	}
	c := &udptransport.Client{Timeout: 2 * time.Second}
	apex := dns.MustName("dlv.isc.org")

	axfr, err := c.QueryTCP(addr, dns.NewQuery(1, apex, dns.TypeAXFR, true))
	if err != nil {
		t.Fatal(err)
	}
	ans := axfr.Answer
	if axfr.Header.RCode != dns.RCodeNoError || len(ans) < 2 ||
		ans[0].Type != dns.TypeSOA || ans[len(ans)-1].Type != dns.TypeSOA {
		t.Fatalf("AXFR is not SOA-bracketed: rcode %s, %d records", axfr.Header.RCode, len(ans))
	}
	var owners []dns.Name
	for _, rr := range ans {
		if rr.Type == dns.TypeDLV {
			owners = append(owners, rr.Name)
		}
	}
	if len(owners) != deposits {
		t.Fatalf("AXFR carries %d DLV records, want %d", len(owners), deposits)
	}

	resp, err := c.Query(addr, dns.NewQuery(2, owners[0], dns.TypeDLV, true))
	if err != nil {
		t.Fatal(err)
	}
	var dlvs int
	for _, rr := range resp.Answer {
		if rr.Type == dns.TypeDLV && rr.Name == owners[0] {
			dlvs++
		}
	}
	if resp.Header.RCode != dns.RCodeNoError || resp.Header.TC || dlvs != 1 {
		t.Fatalf("DLV query for %s over UDP: rcode %s tc=%t, %d DLV records", owners[0], resp.Header.RCode, resp.Header.TC, dlvs)
	}

	// A domain that never deposited is denied: the query the paper's Case 2
	// leaks to the registry.
	miss, err := c.Query(addr, dns.NewQuery(3, dns.MustName("never-deposited.dlv.isc.org"), dns.TypeDLV, true))
	if err != nil {
		t.Fatal(err)
	}
	if miss.Header.RCode != dns.RCodeNXDomain {
		t.Fatalf("undeposited name: rcode %s, want NXDOMAIN", miss.Header.RCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dlvd did not shut down")
	}
	if !strings.Contains(out.String(), "dlvd: serving dlv.isc.org. on "+addr.String()) {
		t.Fatalf("startup line missing:\n%s", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-zone", "bad..name"},
		{"-listen", "not-an-address"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}, func(netip.AddrPort) {}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
