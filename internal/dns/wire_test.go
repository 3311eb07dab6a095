package dns

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	m := NewQuery(0x1234, MustName("www.example.com"), TypeA, true)
	r := NewResponse(m)
	r.Header.RA = true
	r.Header.AD = true
	r.Header.RCode = RCodeNoError
	r.Answer = []RR{
		{
			Name: MustName("www.example.com"), Type: TypeA, Class: ClassIN, TTL: 300,
			Data: &AData{Addr: netip.MustParseAddr("192.0.2.10")},
		},
		{
			Name: MustName("www.example.com"), Type: TypeRRSIG, Class: ClassIN, TTL: 300,
			Data: &RRSIGData{
				TypeCovered: TypeA, Algorithm: 13, Labels: 3, OriginalTTL: 300,
				Expiration: 1700000000, Inception: 1690000000, KeyTag: 12345,
				SignerName: MustName("example.com"), Signature: []byte{1, 2, 3, 4},
			},
		},
	}
	r.Authority = []RR{
		{
			Name: MustName("example.com"), Type: TypeNS, Class: ClassIN, TTL: 3600,
			Data: &NSData{Target: MustName("ns1.example.com")},
		},
	}
	r.Additional = []RR{
		{
			Name: MustName("ns1.example.com"), Type: TypeA, Class: ClassIN, TTL: 3600,
			Data: &AData{Addr: netip.MustParseAddr("192.0.2.1")},
		},
	}
	return r
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("roundtrip mismatch:\nsent: %s\ngot:  %s", m, got)
	}
}

func TestNameCompressionSavesBytes(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// The message repeats example.com-derived names 6 times; compression
	// must keep the message far below the uncompressed size.
	uncompressed := 0
	for _, q := range m.Question {
		uncompressed += q.Name.WireLen() + 4
	}
	for _, sec := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range sec {
			uncompressed += rr.Name.WireLen() + 10
			rd, err := EncodeRData(rr.Data)
			if err != nil {
				t.Fatal(err)
			}
			uncompressed += len(rd)
		}
	}
	uncompressed += 12 + 11 // header + OPT
	if len(wire) >= uncompressed {
		t.Fatalf("no compression benefit: wire=%d uncompressed≈%d", len(wire), uncompressed)
	}
}

// fixturePayloads covers every supported RDATA shape.
func fixturePayloads() []RData {
	return []RData{
		&AData{Addr: netip.MustParseAddr("203.0.113.7")},
		&AAAAData{Addr: netip.MustParseAddr("2001:db8::1")},
		&NSData{Target: MustName("ns.example.net")},
		&CNAMEData{Target: MustName("alias.example.org")},
		&PTRData{Target: MustName("host.example.com")},
		&SOAData{
			MName: MustName("ns1.example.com"), RName: MustName("hostmaster.example.com"),
			Serial: 2024010101, Refresh: 7200, Retry: 900, Expire: 1209600, MinTTL: 300,
		},
		&MXData{Preference: 10, Exchange: MustName("mail.example.com")},
		&TXTData{Strings: []string{"dlv=1", "v=spf1 -all"}},
		&TXTData{Strings: nil},
		&DNSKEYData{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: bytes.Repeat([]byte{0xAB}, 64)},
		&DSData{KeyTag: 60485, Algorithm: 13, DigestType: 2, Digest: bytes.Repeat([]byte{0xCD}, 32)},
		&DLVData{KeyTag: 60485, Algorithm: 13, DigestType: 2, Digest: bytes.Repeat([]byte{0xEF}, 32)},
		&RRSIGData{
			TypeCovered: TypeNSEC, Algorithm: 13, Labels: 2, OriginalTTL: 3600,
			Expiration: 1800000000, Inception: 1790000000, KeyTag: 4711,
			SignerName: MustName("example.com"), Signature: bytes.Repeat([]byte{0x55}, 64),
		},
		&NSECData{NextName: MustName("zz.example.com"), Types: []Type{TypeA, TypeNS, TypeRRSIG, TypeNSEC, TypeDLV}},
		&NSEC3Data{
			HashAlgorithm: 1, Flags: 0, Iterations: 10, Salt: []byte{0xAA, 0xBB},
			NextHash: bytes.Repeat([]byte{0x11}, 20), Types: []Type{TypeA, TypeDS},
		},
		&RawData{T: Type(999), Data: []byte{9, 9, 9}},
	}
}

func TestAllRDataRoundTrip(t *testing.T) {
	owner := MustName("test.example.com")
	for _, d := range fixturePayloads() {
		t.Run(d.RType().String()+"/"+d.String(), func(t *testing.T) {
			m := &Message{
				Header:   Header{ID: 1, QR: true},
				Question: []Question{{Name: owner, Type: d.RType(), Class: ClassIN}},
				Answer:   []RR{{Name: owner, Type: d.RType(), Class: ClassIN, TTL: 60, Data: d}},
			}
			wire, err := m.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := DecodeMessage(wire)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if len(got.Answer) != 1 {
				t.Fatalf("got %d answers, want 1", len(got.Answer))
			}
			// TXT with no strings decodes as one empty string (the wire
			// format cannot express "zero strings" in non-empty RDATA).
			want := d
			if txt, ok := d.(*TXTData); ok && len(txt.Strings) == 0 {
				want = &TXTData{Strings: []string{""}}
			}
			if !reflect.DeepEqual(got.Answer[0].Data, want) {
				t.Fatalf("rdata mismatch:\nsent %#v\ngot  %#v", want, got.Answer[0].Data)
			}
		})
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	for mask := 0; mask < 1<<8; mask++ {
		h := Header{
			ID:    uint16(mask * 257),
			QR:    mask&1 != 0,
			AA:    mask&2 != 0,
			TC:    mask&4 != 0,
			RD:    mask&8 != 0,
			RA:    mask&16 != 0,
			Z:     mask&32 != 0,
			AD:    mask&64 != 0,
			CD:    mask&128 != 0,
			RCode: RCode(mask % 6),
		}
		m := &Message{Header: h}
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.Header != h {
			t.Fatalf("header mismatch: sent %+v got %+v", h, got.Header)
		}
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	for _, do := range []bool{true, false} {
		m := NewQuery(9, MustName("example.com"), TypeDLV, true)
		m.EDNS.DO = do
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := DecodeMessage(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.EDNS == nil {
			t.Fatal("EDNS lost in roundtrip")
		}
		if got.EDNS.DO != do || got.EDNS.UDPSize != DefaultUDPSize {
			t.Fatalf("EDNS = %+v, want DO=%t size=%d", got.EDNS, do, DefaultUDPSize)
		}
		if got.DNSSECOK() != do {
			t.Fatalf("DNSSECOK() = %t, want %t", got.DNSSECOK(), do)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(wire); i++ {
		if _, err := DecodeMessage(wire[:i]); err == nil {
			t.Fatalf("DecodeMessage succeeded on %d-byte prefix of %d-byte message", i, len(wire))
		}
	}
}

func TestDecodeBadPointer(t *testing.T) {
	// Header + a question whose name is a self-referencing pointer.
	wire := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 12, // pointer to itself
		0, 1, 0, 1,
	}
	if _, err := DecodeMessage(wire); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("err = %v, want ErrBadPointer", err)
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prop := func(seed int64, size uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size))
		rr.Read(buf)
		_, _ = DecodeMessage(buf) // must not panic
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMutatedRoundTripNoPanic(t *testing.T) {
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3000; trial++ {
		mut := make([]byte, len(wire))
		copy(mut, wire)
		for flips := 0; flips < 1+r.Intn(4); flips++ {
			mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		}
		_, _ = DecodeMessage(mut) // must not panic
	}
}

func TestTypeBitmapRoundTrip(t *testing.T) {
	prop := func(raw []uint16) bool {
		seen := map[Type]bool{}
		var types []Type
		for _, v := range raw {
			t := Type(v)
			if t == 0 || seen[t] {
				continue
			}
			seen[t] = true
			types = append(types, t)
		}
		d := &NSECData{NextName: MustName("next.example"), Types: types}
		enc, err := EncodeRData(d)
		if err != nil {
			return false
		}
		p := &parser{data: enc}
		got, ok := decodeRData(p, TypeNSEC).(*NSECData)
		if !ok || p.err != nil {
			return false
		}
		SortTypes(types)
		if len(types) == 0 {
			return len(got.Types) == 0
		}
		return reflect.DeepEqual(got.Types, types)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRDataCanonicalNoCompression(t *testing.T) {
	// SOA contains two names sharing a suffix; canonical encoding must not
	// emit pointers.
	d := &SOAData{
		MName: MustName("ns1.example.com"), RName: MustName("admin.example.com"),
		Serial: 1, Refresh: 2, Retry: 3, Expire: 4, MinTTL: 5,
	}
	enc, err := EncodeRData(d)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := MustName("ns1.example.com").WireLen() + MustName("admin.example.com").WireLen() + 20
	if len(enc) != wantLen {
		t.Fatalf("canonical SOA rdata len = %d, want %d (uncompressed)", len(enc), wantLen)
	}
	for i := 0; i < len(enc)-1; i++ {
		if enc[i]&0xC0 == 0xC0 && i < MustName("ns1.example.com").WireLen()+MustName("admin.example.com").WireLen() {
			t.Fatalf("compression pointer found at offset %d in canonical rdata", i)
		}
	}
}

func TestEncodeName(t *testing.T) {
	got := EncodeName(MustName("ab.c"))
	want := []byte{2, 'a', 'b', 1, 'c', 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeName = %v, want %v", got, want)
	}
	if !bytes.Equal(EncodeName(Root), []byte{0}) {
		t.Fatalf("EncodeName(root) = %v", EncodeName(Root))
	}
}

func TestEncodeBadAddressFamilies(t *testing.T) {
	owner := MustName("x.example")
	bad := []RR{
		{Name: owner, Type: TypeA, Class: ClassIN, Data: &AData{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: owner, Type: TypeAAAA, Class: ClassIN, Data: &AAAAData{Addr: netip.MustParseAddr("192.0.2.1")}},
	}
	for _, rr := range bad {
		m := &Message{Answer: []RR{rr}}
		if _, err := m.Encode(); !errors.Is(err, ErrBadRData) {
			t.Fatalf("Encode(%s) err = %v, want ErrBadRData", rr.Type, err)
		}
	}
}

// fixtureMessages returns every message shape the codec tests exercise:
// the compressed sample response, one answer message per RDATA fixture,
// queries with and without EDNS, a padded query, and degenerate headers.
func fixtureMessages() map[string]*Message {
	owner := MustName("test.example.com")
	fixtures := map[string]*Message{
		"sample":        sampleMessage(),
		"query-edns":    NewQuery(1, MustName("example.com"), TypeA, true),
		"query-plain":   NewQuery(2, MustName("example.com"), TypeDLV, false),
		"header-only":   {Header: Header{ID: 3, QR: true, AA: true, RCode: RCodeNXDomain}},
		"header-zbit":   {Header: Header{ID: 4, QR: true, Z: true, AD: true, CD: true}},
		"root-question": {Question: []Question{{Name: Root, Type: TypeNS, Class: ClassIN}}},
	}
	padded := NewQuery(5, MustName("pad-me.example.com"), TypeA, true)
	padded.EDNS.Padding = 37
	fixtures["query-padded"] = padded
	for i, d := range fixturePayloads() {
		m := &Message{
			Header:   Header{ID: 6, QR: true, AA: true},
			Question: []Question{{Name: owner, Type: d.RType(), Class: ClassIN}},
			Answer:   []RR{{Name: owner, Type: d.RType(), Class: ClassIN, TTL: 60, Data: d}},
		}
		fixtures[fmt.Sprintf("rdata-%d-%s", i, d.RType())] = m
	}
	return fixtures
}

func TestWireSizeMatchesEncode(t *testing.T) {
	for name, m := range fixtureMessages() {
		t.Run(name, func(t *testing.T) {
			n, err := m.WireSize()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := m.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if n != len(wire) {
				t.Fatalf("WireSize = %d, Encode len = %d", n, len(wire))
			}
		})
	}
}

func TestEDNSPaddingRoundTrip(t *testing.T) {
	m := NewQuery(3, MustName("example.com"), TypeA, true)
	m.EDNS.Padding = 37
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.EDNS == nil || got.EDNS.Padding != 37 {
		t.Fatalf("EDNS after roundtrip = %+v", got.EDNS)
	}
	if !got.EDNS.DO {
		t.Fatal("DO bit lost alongside padding")
	}
}

func TestPadToBlock(t *testing.T) {
	for _, block := range []int{128, 468} {
		for _, withEDNS := range []bool{true, false} {
			m := NewQuery(9, MustName("pad-me.example.com"), TypeA, withEDNS)
			if err := m.PadToBlock(block); err != nil {
				t.Fatal(err)
			}
			size, err := m.WireSize()
			if err != nil {
				t.Fatal(err)
			}
			if size%block != 0 {
				t.Fatalf("block=%d edns=%t: padded size %d not aligned", block, withEDNS, size)
			}
		}
	}
	// Zero block is a no-op.
	m := NewQuery(9, MustName("x.example"), TypeA, true)
	before, _ := m.WireSize()
	if err := m.PadToBlock(0); err != nil {
		t.Fatal(err)
	}
	after, _ := m.WireSize()
	if before != after {
		t.Fatal("PadToBlock(0) changed the message")
	}
}

func TestPadToBlockAlreadyAligned(t *testing.T) {
	// Find a block size equal to the message size: no option is added.
	m := NewQuery(1, MustName("a.b"), TypeA, true)
	size, err := m.WireSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PadToBlock(size); err != nil {
		t.Fatal(err)
	}
	if m.EDNS.Padding != 0 {
		t.Fatalf("padding added to aligned message: %d", m.EDNS.Padding)
	}
}

func TestDecodeBadOPTOption(t *testing.T) {
	m := NewQuery(4, MustName("x.example"), TypeA, true)
	m.EDNS.Padding = 10
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the option payload: rdlength shrinks but the option
	// header claims more than remains.
	wire[len(wire)-12] = 0 // clobber the option length high byte region
	wire = append(wire[:len(wire)-10], wire[len(wire)-9:]...)
	_, _ = DecodeMessage(wire) // must not panic; error acceptable
}
