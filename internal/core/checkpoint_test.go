package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/netip"
	"reflect"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/snapshot"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// buildCheckpoint runs a small sharded audit and checkpoints every shard,
// returning the checkpoint and the world it belongs to.
func buildCheckpoint(t *testing.T, shards int) (*Checkpoint, string, string) {
	t.Helper()
	u, pop := buildUniverse(t, 5)
	return checkpointOf(t, u, pop, shards)
}

// hashedCheckpoint is buildCheckpoint on a hashed-registry twin of the same
// world, so HashedLabels and the per-client Hashed maps are non-empty.
func hashedCheckpoint(t *testing.T, shards int) *Checkpoint {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 300, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: 5, Population: pop, Extra: dataset.SecureDomains(), RegistryHashed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ck, _, _ := checkpointOf(t, u, pop, shards)
	if len(ck.States[0].Capture.HashedLabels) == 0 || len(ck.States[0].Capture.Clients[0].Hashed) == 0 {
		t.Fatal("hashed fixture recorded no hash labels")
	}
	return ck
}

// checkpointOf audits the top 80 domains of a world on the given number of
// shards and checkpoints all of them.
func checkpointOf(t *testing.T, u *universe.Universe, pop *dataset.Population, shards int) (*Checkpoint, string, string) {
	t.Helper()
	cfg := auditorConfig(u)
	s, err := NewShardedAuditor(u, ShardedOptions{Options: cfg, Workers: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.QueryDomains(pop.Top(80)); err != nil {
		t.Fatal(err)
	}
	uFP, cFP := u.Fingerprint(), cfg.Resolver.WarmFingerprint()
	ck := &Checkpoint{
		UniverseFP: uFP, ConfigFP: cFP,
		Population: 80, Shards: shards,
		States: make(map[int]*ShardState),
	}
	for i := 0; i < shards; i++ {
		ck.States[i] = s.ExportShardState(i)
	}
	return ck, uFP, cFP
}

// TestCheckpointRoundTrip pins the checkpoint wire format: encode → decode →
// re-encode is byte-identical, and the decoded checkpoint carries the same
// identity, counters, and capture state.
func TestCheckpointRoundTrip(t *testing.T) {
	ck, _, _ := buildCheckpoint(t, 4)
	data := EncodeCheckpoint(ck)
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UniverseFP != ck.UniverseFP || got.ConfigFP != ck.ConfigFP ||
		got.Population != ck.Population || got.Shards != ck.Shards {
		t.Errorf("identity fields changed: %+v", got)
	}
	if len(got.States) != len(ck.States) {
		t.Fatalf("decoded %d shard states, want %d", len(got.States), len(ck.States))
	}
	for i, st := range ck.States {
		dec := got.States[i]
		if dec == nil {
			t.Fatalf("shard %d missing after decode", i)
		}
		if dec.Queried != st.Queried || dec.StubQueries != st.StubQueries ||
			dec.SecureAnswers != st.SecureAnswers || dec.Servfails != st.Servfails ||
			dec.Stats != st.Stats || dec.Elapsed != st.Elapsed || dec.LatCount != st.LatCount {
			t.Errorf("shard %d counters changed:\nwant %+v\ngot  %+v", i, st, dec)
		}
		if !reflect.DeepEqual(dec.Lat, st.Lat) {
			t.Errorf("shard %d latency histogram changed", i)
		}
		if dec.Capture.Events != st.Capture.Events ||
			dec.Capture.DLVQueries != st.Capture.DLVQueries ||
			!reflect.DeepEqual(dec.Capture.Domains, st.Capture.Domains) {
			t.Errorf("shard %d capture state changed", i)
		}
	}
	if again := EncodeCheckpoint(got); !bytes.Equal(data, again) {
		t.Error("re-encoding a decoded checkpoint is not byte-identical")
	}
}

// TestCheckpointGoldenBytes pins the DLVC version-1 layout byte for byte, on
// the plain fixture and on a hashed-registry twin of it (so HashedLabels and
// the per-client Hashed maps are written too). The digests were recorded
// from the tree before the section layouts moved onto the Codec; a change
// that moves them on purpose bumps CheckpointVersion.
func TestCheckpointGoldenBytes(t *testing.T) {
	plain, _, _ := buildCheckpoint(t, 4)
	hashed := hashedCheckpoint(t, 4)
	for _, g := range []struct {
		name   string
		ck     *Checkpoint
		size   int
		sha256 string
	}{
		{"plain", plain, 1342, "74a0700d9b069a6c6d2196c9a23d85be9b60409b7f8ff1f80e103e3a57ae5c8a"},
		{"hashed", hashed, 9575, "5ce715bf222e7e48c7da8ff45c0df1d31ba1862e019afeeb00362e0a450d9cb9"},
	} {
		data := EncodeCheckpoint(g.ck)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != g.size || got != g.sha256 {
			t.Errorf("%s: %d bytes sha256 %s, want %d bytes %s", g.name, len(data), got, g.size, g.sha256)
		}
	}
}

// TestCheckpointMatches pins the identity gate: every mismatched dimension
// is refused with ErrMismatch, an exact match is accepted.
func TestCheckpointMatches(t *testing.T) {
	ck, uFP, cFP := buildCheckpoint(t, 4)
	if err := ck.Matches(uFP, cFP, 80, 4); err != nil {
		t.Fatalf("exact match refused: %v", err)
	}
	for name, err := range map[string]error{
		"universe":   ck.Matches("other", cFP, 80, 4),
		"config":     ck.Matches(uFP, "other", 80, 4),
		"population": ck.Matches(uFP, cFP, 81, 4),
		"shards":     ck.Matches(uFP, cFP, 80, 8),
	} {
		if !errors.Is(err, snapshot.ErrMismatch) {
			t.Errorf("%s mismatch: err = %v, want ErrMismatch", name, err)
		}
	}
}

// TestCheckpointDecodeRefusals pins structural refusals: a shard index
// outside the declared partition, a snapshot file posing as a checkpoint,
// and truncated bytes all error rather than half-load.
func TestCheckpointDecodeRefusals(t *testing.T) {
	ck, _, _ := buildCheckpoint(t, 4)
	// Smuggle a shard index past the declared count; Encode writes it
	// faithfully, Decode must refuse it.
	ck.States[9] = ck.States[0]
	if _, err := DecodeCheckpoint(EncodeCheckpoint(ck)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("out-of-range shard index: err = %v, want ErrCorrupt", err)
	}
	delete(ck.States, 9)

	data := EncodeCheckpoint(ck)
	wrongMagic := append([]byte(nil), data...)
	copy(wrongMagic, snapshot.Magic[:]) // a warm-state snapshot is not a checkpoint
	if _, err := DecodeCheckpoint(wrongMagic); !errors.Is(err, snapshot.ErrMagic) {
		t.Errorf("snapshot magic: err = %v, want ErrMagic", err)
	}
	for i := 0; i < len(data); i += 7 {
		if _, err := DecodeCheckpoint(data[:i]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", i, len(data))
		}
	}
}

// FuzzCheckpointDecode extends the fuzz-safety contract to the checkpoint
// format: arbitrary bytes never panic and never yield partial state, and
// whatever is accepted is exactly what EncodeCheckpoint writes for it — the
// decoder takes no second spelling of any state.
func FuzzCheckpointDecode(f *testing.F) {
	valid := EncodeCheckpoint(seedCheckpoint())
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	for i := 1; i < len(valid); i += 11 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 0x20
		f.Add(flipped)
	}
	check := func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			if c != nil {
				t.Fatal("DecodeCheckpoint returned a checkpoint alongside an error")
			}
			return
		}
		if !bytes.Equal(EncodeCheckpoint(c), data) {
			t.Fatal("accepted bytes are not the ones the checkpoint encodes to")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		// Nearly every mutation dies at the checksum; with the trailer
		// recomputed the same bytes exercise the section layouts.
		if len(data) >= 8 {
			resealed := append([]byte(nil), data...)
			reseal(resealed)
			check(t, resealed)
		}
	})
}

// seedCheckpoint hand-builds a one-shard checkpoint with every field of a
// shard state populated, without the cost of running an audit.
func seedCheckpoint() *Checkpoint {
	return &Checkpoint{
		UniverseFP: "u", ConfigFP: "c", Population: 10, Shards: 2,
		States: map[int]*ShardState{0: {
			Queried: 5, StubQueries: 5, Stats: resolver.Stats{Resolutions: 5},
			Lat: []LatBin{{Value: 1000, Count: 5}},
			Capture: &capture.State{
				Events: 5, BytesTotal: 640,
				QueriesByType: map[dns.Type]int{dns.TypeA: 5},
				QueriesByRole: map[simnet.Role]int{simnet.RoleDLV: 2},
				BytesByRole:   map[simnet.Role]int64{simnet.RoleDLV: 128},
				DLVQueries:    2, DLVNXDomain: 1,
				Domains:      map[dns.Name]capture.Case{dns.MustName("x.com."): capture.Case2},
				HashedLabels: []string{"ab12"},
				Clients: []capture.ClientState{{
					Client: netip.MustParseAddr("10.0.0.1"), Queries: 5,
					Domains: map[dns.Name]int{dns.MustName("x.com."): 5},
					Cases:   map[dns.Name]capture.Case{dns.MustName("x.com."): capture.Case2},
					Hashed:  map[string]int{"ab12": 1},
				}},
			},
		}},
	}
}
