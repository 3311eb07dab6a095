package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/snapshot"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// fuzzSeedState hand-builds a small but fully populated state — every
// section kind, glue and glueless servers, keys, spans, memoized RRSIGs —
// without the cost of constructing a universe, so the fuzz seed corpus
// exercises every decode path from the first execution.
func fuzzSeedState() *snapshot.State {
	mk := dns.MustName
	return &snapshot.State{
		UniverseFP: "seed=1 domains=2",
		ConfigFP:   "validation=true",
		Infra: &resolver.InfraState{
			Delegations: []resolver.InfraDelegation{{
				Name: mk("com."), Parent: dns.Root,
				Servers: []resolver.InfraServer{
					{Name: mk("ns1.com."), Addr: netip.MustParseAddr("192.0.2.1")},
					{Name: mk("ns2.com.")}, // glueless: zero address
				},
			}},
			Outcomes: []resolver.InfraOutcome{{
				Name: mk("com."), Status: resolver.StatusSecure, Signed: true,
				Keys: []*dns.DNSKEYData{{
					Flags: 257, Protocol: 3, Algorithm: 13,
					PublicKey: []byte{1, 2, 3, 4},
				}},
			}},
			Spans: []resolver.InfraSpanSet{{
				Zone: mk("com."), Limit: 4096,
				Spans: []resolver.InfraSpan{
					{Owner: mk("a.com."), Next: mk("m.com."), Expires: 1000},
					{Owner: mk("m.com."), Next: mk("z.com."), Expires: 2000},
				},
			}},
		},
		ZoneSigs: []*zone.SigState{{
			Apex: mk("com."), Generation: 7,
			Entries: []zone.SigEntry{{
				Key: dns.Key{Name: mk("www.com."), Type: dns.TypeA, Class: dns.ClassIN},
				Sig: dns.RR{
					Name: mk("www.com."), Type: dns.TypeRRSIG, Class: dns.ClassIN, TTL: 300,
					Data: &dns.RRSIGData{
						TypeCovered: dns.TypeA, Algorithm: 13, Labels: 2,
						OriginalTTL: 300, Expiration: 5000, Inception: 1000,
						KeyTag: 42, SignerName: mk("com."),
						Signature: []byte{9, 8, 7},
					},
				},
			}},
		}},
	}
}

// FuzzSnapshotDecode pins the fuzz-safety contract of the snapshot format:
// Decode of arbitrary bytes — truncated, corrupted, bit-flipped — either
// succeeds or returns an error; it never panics and never returns a state
// alongside an error. Whatever it accepts is exactly what Encode writes for
// the decoded state — the decoder takes no second spelling of any state —
// and survives the round trip unchanged, so a fuzz-found "valid" input
// cannot smuggle in a state the encoder could not have produced.
func FuzzSnapshotDecode(f *testing.F) {
	valid := snapshot.Encode(fuzzSeedState())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DLVS"))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xAA))
	for i := 1; i < len(valid); i += 13 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	check := func(t *testing.T, data []byte) {
		st, err := snapshot.Decode(data)
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned a state alongside an error")
			}
			return
		}
		canon := snapshot.Encode(st)
		if !bytes.Equal(canon, data) {
			t.Fatal("accepted bytes are not the ones the state encodes to")
		}
		again, err := snapshot.Decode(canon)
		if err != nil {
			t.Fatalf("re-decoding an accepted state failed: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatal("accepted state does not round-trip")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		// Nearly every mutation dies at the checksum; with the trailer
		// recomputed the same bytes exercise the section layouts.
		if len(data) >= 8 {
			resealed := append([]byte(nil), data...)
			body := resealed[:len(resealed)-8]
			binary.LittleEndian.PutUint64(resealed[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
			check(t, resealed)
		}
	})
}
