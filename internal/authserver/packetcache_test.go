package authserver

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
)

// queryWire runs one query through the wire path and returns both forms.
func queryWire(t *testing.T, srv *Server, id uint16, name string, qtype dns.Type) (*dns.Message, []byte) {
	t.Helper()
	q := dns.NewQuery(id, dns.MustName(name), qtype, true)
	resp, wire, err := srv.HandleQueryWire(q, stub, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp, wire
}

func TestPacketCacheHitsAndIDPatch(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", true))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Cache() == nil {
		t.Fatal("cache disabled by default")
	}

	// Second-touch admission: the first ask is answered and forgotten, the
	// second is retained, the third is the first hit.
	r1, w1 := queryWire(t, srv, 0x1111, "www.example.com", dns.TypeA)
	r2, w2 := queryWire(t, srv, 0x2222, "www.example.com", dns.TypeA)
	r3, w3 := queryWire(t, srv, 0x3333, "www.example.com", dns.TypeA)

	if hits, misses := srv.Cache().Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 2)", hits, misses)
	}
	if r1.Header.ID != 0x1111 || r2.Header.ID != 0x2222 || r3.Header.ID != 0x3333 {
		t.Fatalf("response IDs = %#x, %#x, %#x", r1.Header.ID, r2.Header.ID, r3.Header.ID)
	}
	// The cached wire must be either miss wire with only the ID patched:
	// admitted or not, a response is the same bytes.
	for _, w := range [][]byte{w1, w2} {
		if len(w) != len(w3) || !bytes.Equal(w[2:], w3[2:]) {
			t.Fatal("hit wire differs from miss wire beyond the message ID")
		}
	}
	// And each wire must equal a fresh encode of its own response.
	for i, pair := range []struct {
		r *dns.Message
		w []byte
	}{{r1, w1}, {r2, w2}, {r3, w3}} {
		enc, err := pair.r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, pair.w) {
			t.Fatalf("query %d: wire does not match response encoding", i)
		}
	}
}

func TestPacketCacheHitHeaderIsCallerOwned(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	// Served responses share section slices with the cache (the read-only
	// contract every exchanged response already carries — a CNAME-chasing
	// resolver merges into a fresh slice, never in place). The header,
	// though, is caller-owned: mutating it must not leak into later hits.
	r1, _ := queryWire(t, srv, 1, "www.example.com", dns.TypeA)
	r1.Header.ID = 0xdead
	r1.Header.RCode = dns.RCodeServFail

	r2, _ := queryWire(t, srv, 2, "www.example.com", dns.TypeA)
	if r2.Header.ID != 2 || r2.Header.RCode != dns.RCodeNoError {
		t.Fatalf("cache header corrupted by caller mutation: %+v", r2.Header)
	}
	// The documented merge pattern — append into a fresh slice — must
	// leave the cached sections intact.
	merged := make([]dns.RR, 0, len(r2.Answer)+1)
	merged = append(merged, r2.Answer...)
	merged = append(merged, r2.Answer[0])
	merged[0].TTL = 9999

	r3, _ := queryWire(t, srv, 3, "www.example.com", dns.TypeA)
	if len(r3.Answer) != 1 || r3.Answer[0].TTL == 9999 {
		t.Fatalf("cache entry corrupted by fresh-slice merge: %+v", r3.Answer)
	}
}

func TestPacketCacheKeySeparation(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", true))
	if err != nil {
		t.Fatal(err)
	}
	// Same name, different DO bit / qtype / RD: all distinct entries.
	qs := []*dns.Message{
		dns.NewQuery(1, dns.MustName("www.example.com"), dns.TypeA, true),
		dns.NewQuery(2, dns.MustName("www.example.com"), dns.TypeA, false),
		dns.NewQuery(3, dns.MustName("www.example.com"), dns.TypeAAAA, true),
	}
	qs[0].EDNS.DO = true
	// NewQuery sets RD; clearing it must key a fourth, distinct entry.
	noRD := dns.NewQuery(4, dns.MustName("www.example.com"), dns.TypeA, true)
	noRD.Header.RD = false
	qs = append(qs, noRD)
	for _, q := range qs {
		if _, _, err := srv.HandleQueryWire(q, stub, nil); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := srv.Cache().Stats(); hits != 0 || misses != uint64(len(qs)) {
		t.Fatalf("stats = (%d hits, %d misses), want (0, %d)", hits, misses, len(qs))
	}
}

func TestPacketCacheGenerationInvalidation(t *testing.T) {
	z := testZone(t, "example.com", false)
	srv, err := New(Config{Name: "ns"}, z)
	if err != nil {
		t.Fatal(err)
	}
	queryWire(t, srv, 1, "www.example.com", dns.TypeA) // first ask
	queryWire(t, srv, 2, "www.example.com", dns.TypeA) // fill
	queryWire(t, srv, 3, "www.example.com", dns.TypeA) // hit

	// Mutate the zone: the generation bumps, the stale entry must refill.
	if err := z.Add(dns.RR{
		Name: dns.MustName("www.example.com"), Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.81")},
	}); err != nil {
		t.Fatal(err)
	}
	for id := uint16(4); id <= 5; id++ { // refill (the key is known to repeat), then hit
		r, _ := queryWire(t, srv, id, "www.example.com", dns.TypeA)
		if len(r.Answer) != 2 {
			t.Fatalf("stale cached response served after zone mutation: %d answers", len(r.Answer))
		}
	}
	if hits, misses := srv.Cache().Stats(); hits != 2 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (2, 3)", hits, misses)
	}
}

// entryCount reads the number of retained responses.
func entryCount(c *PacketCache) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

func TestPacketCacheOneTouchKeysRetainNothing(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", true))
	if err != nil {
		t.Fatal(err)
	}
	// Few enough keys that none lands on another's filter bit (the hash is
	// fixed, so this holds or fails identically on every run).
	const n = 32
	for i := 0; i < n; i++ {
		r, w := queryWire(t, srv, uint16(i+1), fmt.Sprintf("once%d.example.com", i), dns.TypeA)
		enc, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if r.Header.RCode != dns.RCodeNXDomain || !bytes.Equal(enc, w) {
			t.Fatalf("query %d: rcode=%s, wire matches encoding: %t", i, r.Header.RCode, bytes.Equal(enc, w))
		}
	}
	if got := entryCount(srv.Cache()); got != 0 {
		t.Fatalf("%d one-touch keys left %d entries, want 0", n, got)
	}
	if hits, misses := srv.Cache().Stats(); hits != 0 || misses != n {
		t.Fatalf("stats = (%d hits, %d misses), want (0, %d)", hits, misses, n)
	}
	// The message-only path (no wire wanted, none encoded) retains nothing
	// either.
	q := dns.NewQuery(77, dns.MustName("msgonly.example.com"), dns.TypeA, true)
	if r, err := srv.HandleQuery(q, stub); err != nil || r.Header.RCode != dns.RCodeNXDomain {
		t.Fatalf("HandleQuery = (%v, %v)", r, err)
	}
	if got := entryCount(srv.Cache()); got != 0 {
		t.Fatalf("message-only first ask left %d entries", got)
	}
}

func TestPacketCacheInvalidateForgetsFirstAsks(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	queryWire(t, srv, 1, "www.example.com", dns.TypeA) // first ask, marked
	srv.Cache().Invalidate()
	queryWire(t, srv, 2, "www.example.com", dns.TypeA) // a first ask again
	if got := entryCount(srv.Cache()); got != 0 {
		t.Fatalf("a key asked once since Invalidate was admitted: %d entries", got)
	}
	queryWire(t, srv, 3, "www.example.com", dns.TypeA)
	if got := entryCount(srv.Cache()); got != 1 {
		t.Fatalf("second ask since Invalidate left %d entries, want 1", got)
	}
	queryWire(t, srv, 4, "www.example.com", dns.TypeA)
	if hits, misses := srv.Cache().Stats(); hits != 1 || misses != 3 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 3)", hits, misses)
	}
}

func TestPacketCacheFalseAdmissionShare(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	// A stream that never repeats, many times the filter's size: every
	// retained entry is a key admitted on another key's bit.
	const n = 20000
	for i := 0; i < n; i++ {
		q := dns.NewQuery(uint16(i), dns.MustName(fmt.Sprintf("u%d.example.com", i)), dns.TypeA, true)
		if _, _, err := srv.HandleQueryWire(q, stub, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := entryCount(srv.Cache())
	if share := float64(got) / n; share >= 0.10 {
		t.Fatalf("%d of %d one-touch keys were admitted (%.1f %%), want under 10 %%", got, n, 100*share)
	}
	t.Logf("false admissions: %d of %d (%.2f %%)", got, n, 100*float64(got)/n)
}

func TestPacketCacheRemedyKeying(t *testing.T) {
	// A flipping Signaler models a DLV deposit landing between queries: the
	// remedy bit is part of the key, so the TXT answer must track it with no
	// explicit invalidation.
	hasDLV := false
	sig := SignalerFunc(func(dns.Name) bool { return hasDLV })
	srv, err := New(Config{Name: "ns", TXTRemedy: true, Signaler: sig}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	txtOf := func(r *dns.Message) string {
		t.Helper()
		if len(r.Answer) != 1 {
			t.Fatalf("answer = %+v", r.Answer)
		}
		s, ok := dlv.ParseTXTSignal(r.Answer[0].Data.(*dns.TXTData).Strings)
		if !ok {
			t.Fatalf("no dlv= signal in %+v", r.Answer[0].Data)
		}
		return dlv.TXTSignal(s)
	}

	r1, _ := queryWire(t, srv, 1, "www.example.com", dns.TypeTXT)
	if got := txtOf(r1); got != "dlv=0" {
		t.Fatalf("signal = %q, want dlv=0", got)
	}
	hasDLV = true
	r2, _ := queryWire(t, srv, 2, "www.example.com", dns.TypeTXT)
	if got := txtOf(r2); got != "dlv=1" {
		t.Fatalf("signal after deposit = %q, want dlv=1 (stale cache entry?)", got)
	}
}

func TestPacketCacheUncacheableBypasses(t *testing.T) {
	srv, err := New(Config{Name: "ns"}, testZone(t, "example.com", false))
	if err != nil {
		t.Fatal(err)
	}
	// Two questions: answered (for the first question) but never cached.
	q := dns.NewQuery(1, dns.MustName("www.example.com"), dns.TypeA, false)
	q.Question = append(q.Question, dns.Question{
		Name: dns.MustName("www.example.com"), Type: dns.TypeAAAA, Class: dns.ClassIN,
	})
	for id := uint16(1); id <= 2; id++ {
		q.Header.ID = id
		if _, _, err := srv.HandleQueryWire(q, stub, nil); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := srv.Cache().Stats(); hits != 0 || misses != 0 {
		t.Fatalf("uncacheable query touched the cache: (%d, %d)", hits, misses)
	}
}
