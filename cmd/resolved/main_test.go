package main

import (
	"compress/gzip"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
)

// freePort grabs an ephemeral port and releases it for the server to bind.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.LocalAddr().String()
	_ = ln.Close()
	return addr
}

// bootServer runs the real server on a free port with the given extra
// flags and waits for its stats surface to answer.
func bootServer(t *testing.T, extra ...string) (netip.AddrPort, *udptransport.Client, chan error) {
	t.Helper()
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{
			"-listen", addr, "-domains", "300", "-workers", "2", "-print-top", "0", "-drain", "2s",
		}, extra...))
	}()

	ap := netip.MustParseAddrPort(addr)
	c := &udptransport.Client{Timeout: time.Second}
	var err error
	for i := 0; i < 100; i++ {
		if _, err = serve.FetchSnapshot(c, ap); err == nil {
			return ap, c, done
		}
		select {
		case startErr := <-done:
			t.Fatalf("server exited early: %v", startErr)
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatalf("stats surface never came up: %v", err)
	return ap, c, done
}

// terminate sends the process SIGTERM and waits for the server's graceful
// exit.
func terminate(t *testing.T, done chan error) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestServeAndGracefulShutdown boots the real server, resolves over the
// wire, scrapes the stats surface, and exercises the SIGTERM drain path
// end to end — at the default width, and at -workers 1, which is the same
// stack (shared infra, snapshots) as any other width.
func TestServeAndGracefulShutdown(t *testing.T) {
	snapFile := filepath.Join(t.TempDir(), "warm.snap")
	for _, tc := range []struct {
		name     string
		flags    []string
		bootMode core.BootMode
	}{
		// -udp-shards 2 exercises the sharded boot and drain path end to end
		// (non-Linux builds fall back to one socket and still pass).
		{"two workers, two udp shards", []string{"-udp-shards", "2"}, core.BootLiveWarm},
		{"one worker saves a snapshot", []string{"-workers", "1", "-snapshot-save", snapFile}, core.BootLiveWarm},
		{"one worker boots from it", []string{"-workers", "1", "-snapshot-load", snapFile}, core.BootSnapshot},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ap, c, done := bootServer(t, tc.flags...)

			q := dns.NewQuery(7, dns.MustName("secure00.edu"), dns.TypeA, true)
			resp, err := c.QueryWithFallback(ap, q)
			if err != nil {
				t.Fatalf("query over wire: %v", err)
			}
			if resp.Header.RCode != dns.RCodeNoError {
				t.Fatalf("rcode %s", resp.Header.RCode)
			}
			snap, err := serve.FetchSnapshot(c, ap)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Resolver.Resolutions == 0 || snap.UDP.Queries == 0 {
				t.Fatalf("scorecard empty after a resolution: %+v", snap)
			}
			if snap.Resolver.InfraHits == 0 || core.BootMode(snap.BootMode) != tc.bootMode {
				t.Fatalf("infra_hits %d, boot mode %s; want hits and %s",
					snap.Resolver.InfraHits, core.BootMode(snap.BootMode), tc.bootMode)
			}

			terminate(t, done)

			// The sockets must actually be released.
			if _, err := serve.FetchSnapshot(c, ap); err == nil {
				t.Fatal("stats surface still answering after shutdown")
			}
		})
	}
}

// TestProfileFlags pins the two diagnostic flags: a short serving run leaves
// a CPU profile and a heap profile behind, each a non-empty gzip stream that
// `go tool pprof` parses (checked where the toolchain is at hand).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	ap, c, done := bootServer(t, "-cpuprofile", cpu, "-memprofile", mem)
	for i := 0; i < 20; i++ {
		q := dns.NewQuery(uint16(100+i), dns.MustName(fmt.Sprintf("secure%02d.edu", i)), dns.TypeA, true)
		if _, err := c.QueryWithFallback(ap, q); err != nil {
			t.Fatalf("query over wire: %v", err)
		}
	}
	terminate(t, done)

	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s is not a gzip stream: %v", path, err)
		}
		raw, err := io.ReadAll(zr)
		_ = f.Close()
		if err != nil || len(raw) == 0 {
			t.Fatalf("%s: %d bytes of profile, err %v", path, len(raw), err)
		}
		if goTool, err := exec.LookPath("go"); err == nil {
			if out, err := exec.Command(goTool, "tool", "pprof", "-raw", path).CombinedOutput(); err != nil {
				t.Fatalf("go tool pprof -raw %s: %v\n%s", path, err, out)
			}
		}
	}
}

// TestBadRemedyRejected keeps flag validation honest.
func TestBadRemedyRejected(t *testing.T) {
	err := run([]string{"-remedy", "bogus", "-domains", "10", "-print-top", "0",
		"-listen", freePort(t)})
	if err == nil {
		t.Fatal("bogus remedy accepted")
	}
	if got := err.Error(); got != fmt.Sprintf("unknown remedy %q", "bogus") {
		t.Fatalf("unexpected error: %v", got)
	}
}
