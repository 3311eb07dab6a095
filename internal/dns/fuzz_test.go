package dns

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/faults"
)

// FuzzDecodeMessage drives the wire decoder with arbitrary input: it must
// never panic, and anything it accepts must re-encode and decode to an
// equal header. Run with `go test -fuzz=FuzzDecodeMessage ./internal/dns`.
func FuzzDecodeMessage(f *testing.F) {
	// Seed corpus: a real query, a real signed response, an OPT with
	// padding, and a few corrupt variants.
	q := NewQuery(1, MustName("www.example.com"), TypeA, true)
	qw, err := q.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(qw)
	r := sampleMessage()
	rw, err := r.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rw)
	p := NewQuery(2, MustName("pad.example"), TypeTXT, true)
	p.EDNS.Padding = 17
	pw, err := p.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pw)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must round-trip at the header level.
		wire, err := m.Encode()
		if err != nil {
			// Decoded messages can still be unencodable only when the
			// input smuggled in something our encoder validates harder
			// (e.g. RDATA size); that is acceptable.
			return
		}
		back, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if back.Header != m.Header {
			t.Fatalf("header changed across roundtrip: %+v vs %+v", m.Header, back.Header)
		}
	})
}

// FuzzFaultedDecode feeds the decoder exactly what the fault layer's
// CorruptRate produces on the simulated wire: a message garbled in place by
// faults.Corrupt under fuzzer-chosen entropy. The decoder must never panic
// on a corrupted packet, it must agree with the naive decoder on it, and anything accepted must survive re-encoding — the invariants
// the simnet corruption path (deliver-if-parseable, else timeout) relies
// on. Run with `go test -fuzz=FuzzFaultedDecode ./internal/dns`.
func FuzzFaultedDecode(f *testing.F) {
	q := NewQuery(1, MustName("www.example.com"), TypeA, true)
	qw, err := q.Encode()
	if err != nil {
		f.Fatal(err)
	}
	r := sampleMessage()
	rw, err := r.Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, entropy := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		f.Add(qw, entropy)
		f.Add(rw, entropy)
	}
	f.Add([]byte{}, uint64(7))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), uint64(1<<40|3))

	f.Fuzz(func(t *testing.T, data []byte, entropy uint64) {
		wire := append([]byte(nil), data...)
		faults.Corrupt(entropy, wire)
		fast, fastErr := DecodeMessage(wire)
		ref, refErr := naiveDecode(wire)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("accept/reject disagreement on corrupted wire: fast err=%v, naive err=%v",
				fastErr, refErr)
		}
		if fastErr != nil {
			return // rejected corruption becomes a simnet timeout; fine
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoded messages differ:\nfast:  %#v\nnaive: %#v", fast, ref)
		}
		if wire2, err := fast.Encode(); err == nil {
			if _, err := DecodeMessage(wire2); err != nil {
				t.Fatalf("re-decode of accepted corrupted message failed: %v", err)
			}
		}
	})
}

// FuzzDecodeDifferential pits the zero-allocation decoder (interned names,
// pre-sized sections) against the separately written naive decoder on
// arbitrary input. Both must agree on accept/reject, produce deeply equal
// messages, and — when the result is encodable — byte-identical re-encodings.
// Run with `go test -fuzz=FuzzDecodeDifferential ./internal/dns`.
func FuzzDecodeDifferential(f *testing.F) {
	// Every fixture message: queries, the compressed sample response
	// (pointer chasing in both paths), a padded query, degenerate headers
	// and one answer per RDATA type. Then the hostile corpus.
	fixtures := fixtureMessages()
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wire, err := fixtures[name].Encode()
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(wire)
	}
	for _, e := range hostileCorpus() {
		f.Add(e.wire)
	}
	// Mixed-case owner: DecodeMessage lowercases while copying, the naive
	// decoder in MakeName; results must still agree.
	f.Add([]byte{
		0, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		3, 'W', 'w', 'W', 7, 'E', 'x', 'A', 'm', 'P', 'l', 'E', 3, 'c', 'O', 'm', 0,
		0, 1, 0, 1,
	})
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fast, fastErr := DecodeMessage(data)
		ref, refErr := naiveDecode(data)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("accept/reject disagreement: fast err=%v, naive err=%v", fastErr, refErr)
		}
		if fastErr != nil {
			return
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("decoded messages differ:\nfast:  %#v\nnaive: %#v", fast, ref)
		}
		fw, fastEncErr := fast.Encode()
		rw, refEncErr := ref.Encode()
		if (fastEncErr == nil) != (refEncErr == nil) {
			t.Fatalf("re-encode disagreement: fast err=%v, naive err=%v", fastEncErr, refEncErr)
		}
		if fastEncErr == nil && !bytes.Equal(fw, rw) {
			t.Fatalf("re-encodings differ:\nfast:  %x\nnaive: %x", fw, rw)
		}
	})
}

// FuzzSortKeyOrder pins AppendSortKey to the comparator it represents: for
// any two valid names, memcmp on the keys is CanonicalCompare on the names,
// and key-prefix is IsSubdomainOf. Inputs MakeName rejects are skipped, so
// the fuzzer explores the name alphabet, label boundaries and the length
// limits. Run with `go test -fuzz=FuzzSortKeyOrder ./internal/dns`.
func FuzzSortKeyOrder(f *testing.F) {
	f.Add("example.com", "example.com")
	f.Add("", "com")
	f.Add("a-b.com", "b.a.com")
	f.Add("ab.com", "a-b.com")
	f.Add("*.example", "_x.example")
	f.Add("a.b.c.d", "b.c.d")
	f.Add(strings.Repeat("a", 63)+".x", strings.Repeat("a", 62)+".x")

	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, err := MakeName(sa)
		if err != nil {
			return
		}
		b, err := MakeName(sb)
		if err != nil {
			return
		}
		ka, kb := AppendSortKey(nil, a), AppendSortKey(nil, b)
		if got, want := bytes.Compare(ka, kb), CanonicalCompare(a, b); got != want {
			t.Fatalf("bytes.Compare(key(%q), key(%q)) = %d, CanonicalCompare = %d", a, b, got, want)
		}
		if got, want := bytes.HasPrefix(ka, kb), a.IsSubdomainOf(b); got != want {
			t.Fatalf("HasPrefix(key(%q), key(%q)) = %t, IsSubdomainOf = %t", a, b, got, want)
		}
		if len(ka) > maxNameLen {
			t.Fatalf("key of %q is %d bytes", a, len(ka))
		}
	})
}

// FuzzSortKeyRoundTrip pins NameFromSortKey as the exact inverse of
// AppendSortKey: every valid name, the root included, comes back from its
// key unchanged, from one allocation (the name itself). Run with
// `go test -fuzz=FuzzSortKeyRoundTrip ./internal/dns`.
func FuzzSortKeyRoundTrip(f *testing.F) {
	f.Add("")
	f.Add("com")
	f.Add("example.com")
	f.Add("a-b.com")
	f.Add("*._x.b.a.example")
	f.Add(strings.Repeat("a", 63) + ".x")
	f.Add(strings.Repeat(strings.Repeat("k", 62)+".", 4) + "abc")

	f.Fuzz(func(t *testing.T, s string) {
		n, err := MakeName(s)
		if err != nil {
			return
		}
		// A prefix on dst must not leak into the key's own bytes.
		key := AppendSortKey([]byte("prefix"), n)[len("prefix"):]
		if got := NameFromSortKey(key); got != n {
			t.Fatalf("NameFromSortKey(key(%q)) = %q", n, got)
		}
	})
}
