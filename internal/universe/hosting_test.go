package universe

import (
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
)

// TestPoolServerRefusals pins what a hosting pool answers outside its own
// domains, on both handler paths: a name another pool hosts and a name
// outside the population are REFUSED, an empty question is a FORMERR, and
// none of them reaches the packet cache.
func TestPoolServerRefusals(t *testing.T) {
	u := buildTestUniverse(t, nil)
	own := pickDomain(t, u, func(*dataset.Domain) bool { return true })
	p := u.pool(own.Name)
	other := pickDomain(t, u, func(d *dataset.Domain) bool { return u.pool(d.Name) != p })
	srv, err := u.newPoolServer(p)
	if err != nil {
		t.Fatal(err)
	}

	empty := dns.NewQuery(3, own.Name, dns.TypeA, true)
	empty.Question = nil
	for _, tc := range []struct {
		name string
		q    *dns.Message
		want dns.RCode
	}{
		{"other pool", dns.NewQuery(1, other.Name, dns.TypeA, true), dns.RCodeRefused},
		{"outside the population", dns.NewQuery(2, dns.MustName("www.absent.invalid"), dns.TypeA, true), dns.RCodeRefused},
		{"empty question", empty, dns.RCodeFormErr},
	} {
		resp, err := srv.HandleQuery(tc.q, StubAddr)
		if err != nil {
			t.Fatalf("%s: HandleQuery: %v", tc.name, err)
		}
		if resp.Header.RCode != tc.want || resp.Header.ID != tc.q.Header.ID {
			t.Errorf("%s: HandleQuery rcode %s id %d, want %s id %d",
				tc.name, resp.Header.RCode, resp.Header.ID, tc.want, tc.q.Header.ID)
		}
		resp, wire, err := srv.HandleQueryWire(tc.q, StubAddr, nil)
		if err != nil {
			t.Fatalf("%s: HandleQueryWire: %v", tc.name, err)
		}
		decoded, err := dns.DecodeMessage(wire)
		if err != nil {
			t.Fatalf("%s: decoding the wire response: %v", tc.name, err)
		}
		if resp.Header.RCode != tc.want || decoded.Header.RCode != tc.want || decoded.Header.ID != tc.q.Header.ID {
			t.Errorf("%s: HandleQueryWire rcode %s (wire %s, id %d), want %s id %d",
				tc.name, resp.Header.RCode, decoded.Header.RCode, decoded.Header.ID, tc.want, tc.q.Header.ID)
		}
	}
	if hits, misses := srv.Cache().Stats(); hits != 0 || misses != 0 {
		t.Errorf("refusals reached the packet cache: %d hits, %d misses", hits, misses)
	}

	// The pool still answers its own domain, through the cache.
	resp, err := srv.HandleQuery(dns.NewQuery(4, own.Name, dns.TypeA, true), StubAddr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeNoError || !resp.Header.AA {
		t.Errorf("own domain %s: rcode %s aa %t", own.Name, resp.Header.RCode, resp.Header.AA)
	}
	if _, misses := srv.Cache().Stats(); misses != 1 {
		t.Errorf("own domain: %d cache misses, want 1", misses)
	}
}
