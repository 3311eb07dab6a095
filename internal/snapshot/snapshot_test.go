package snapshot_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/snapshot"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// buildWarm constructs a small universe and warms its shared infrastructure
// cache, the state every snapshot test captures.
func buildWarm(t *testing.T, seed int64) (*universe.Universe, resolver.Config, *resolver.InfraCache) {
	t.Helper()
	u, cfg := buildCold(t, seed)
	ic, err := core.WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u, cfg, ic
}

// buildCold is buildWarm's universe before anything has resolved on it: no
// zone has memoized a signature yet.
func buildCold(t *testing.T, seed int64) (*universe.Universe, resolver.Config) {
	t.Helper()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: 200, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{
		Seed: seed, Population: pop, Extra: dataset.SecureDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	return u, cfg
}

// memoizedSigs counts the signatures the infrastructure zones hold.
func memoizedSigs(u *universe.Universe) int {
	n := 0
	for _, z := range u.InfraZones() {
		if st := z.ExportSigState(); st != nil {
			n += len(st.Entries)
		}
	}
	return n
}

// TestSnapshotRoundTrip pins the format: Capture → Encode → Decode loses
// nothing, re-encoding a decoded state is byte-identical (deterministic
// bytes), and Install rebuilds a sealed cache whose export matches the
// original exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	u, cfg, ic := buildWarm(t, 3)
	st, err := snapshot.Capture(u, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Infra.Delegations) == 0 || len(st.Infra.Outcomes) == 0 {
		t.Fatalf("captured state is empty: %d delegations, %d outcomes",
			len(st.Infra.Delegations), len(st.Infra.Outcomes))
	}
	if len(st.ZoneSigs) == 0 {
		t.Fatal("captured state carries no signed-zone signatures")
	}

	data := snapshot.Encode(st)
	got, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Error("decoded state differs from captured state")
	}
	if again := snapshot.Encode(got); !bytes.Equal(data, again) {
		t.Error("re-encoding a decoded state is not byte-identical")
	}

	ic2, err := snapshot.Install(got, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ic2.Sealed() {
		t.Fatal("Install returned an unsealed cache")
	}
	exp1, err := ic.Export()
	if err != nil {
		t.Fatal(err)
	}
	exp2, err := ic2.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp1, exp2) {
		t.Error("restored cache exports differently than the warmed original")
	}
}

// TestSnapshotGoldenBytes pins the DLVS version-1 layout byte for byte: the
// digests were recorded from the tree before the section layouts moved onto
// the Codec, so a file written by either side loads at the other. A change
// that moves them on purpose bumps Version.
func TestSnapshotGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		seed   int64
		size   int
		sha256 string
	}{
		{3, 6951, "91c93db4eac604a96377c10f01d41421eb8c86bd3bfbdb4ce61b361124926c66"},
		{4, 6946, "3e817d0e34ae0c74ad3159fa0306bf213b1edb261a808fb1769acfd6d1e7fa34"},
		{5, 6974, "f4c8242babf6c718763917dcc0134435618465f14a66db72000104f958168cc2"},
	} {
		u, cfg, ic := buildWarm(t, g.seed)
		st, err := snapshot.Capture(u, cfg, ic)
		if err != nil {
			t.Fatal(err)
		}
		data := snapshot.Encode(st)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != g.size || got != g.sha256 {
			t.Errorf("seed %d: %d bytes sha256 %s, want %d bytes %s", g.seed, len(data), got, g.size, g.sha256)
		}
	}
}

// TestSnapshotSaveLoad exercises the file path: Save writes atomically, Load
// returns a sealed cache, and a missing file is an error (the caller falls
// back to a live warm-up).
func TestSnapshotSaveLoad(t *testing.T) {
	u, cfg, ic := buildWarm(t, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.snap")
	if err := snapshot.Save(path, u, cfg, ic); err != nil {
		t.Fatal(err)
	}
	ic2, err := snapshot.Load(path, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, z1, s1 := ic.Sizes()
	d2, z2, s2 := ic2.Sizes()
	if d1 != d2 || z1 != z2 || s1 != s2 {
		t.Errorf("loaded sizes (%d, %d, %d) != warmed sizes (%d, %d, %d)",
			d2, z2, s2, d1, z1, s1)
	}
	// Atomic write leaves no temp debris next to the snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("snapshot dir holds %d entries, want only the snapshot", len(entries))
	}
	if _, err := snapshot.Load(filepath.Join(dir, "missing.snap"), u, cfg); err == nil {
		t.Error("loading a missing snapshot succeeded")
	}
}

// TestSnapshotEnvelopeRefusals pins the refusal taxonomy of the envelope:
// wrong magic, wrong version, flipped payload bits, truncation, and trailing
// garbage each fail with the right sentinel and never a partial state.
func TestSnapshotEnvelopeRefusals(t *testing.T) {
	u, cfg, ic := buildWarm(t, 5)
	st, err := snapshot.Capture(u, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	data := snapshot.Encode(st)

	check := func(name string, mut func([]byte) []byte, want error) {
		t.Helper()
		b := mut(append([]byte(nil), data...))
		got, err := snapshot.Decode(b)
		if err == nil {
			t.Errorf("%s: Decode succeeded", name)
			return
		}
		if got != nil {
			t.Errorf("%s: Decode returned partial state alongside error", name)
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, snapshot.ErrMagic)
	check("bad version", func(b []byte) []byte { b[4] = 0x7F; return b }, snapshot.ErrVersion)
	check("payload bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, snapshot.ErrChecksum)
	check("trailer bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, snapshot.ErrChecksum)
	check("short prefix", func(b []byte) []byte { return b[:3] }, snapshot.ErrTruncated)
	check("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }, nil)
	// Every truncation point must error, never panic or half-parse.
	for i := 0; i < len(data); i++ {
		if _, err := snapshot.Decode(data[:i]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", i, len(data))
		}
	}
}

// TestSnapshotInstallRefusals pins the staleness checks: a snapshot built
// for a different universe, a different resolver configuration, a mutated
// (regenerated) zone, or a different zone set is refused with ErrMismatch —
// and a refused Install leaves the universe untouched.
func TestSnapshotInstallRefusals(t *testing.T) {
	u, cfg, ic := buildWarm(t, 6)
	st, err := snapshot.Capture(u, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}

	wantMismatch := func(name string, err error, frag string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: Install succeeded", name)
			return
		}
		if !errors.Is(err, snapshot.ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", name, err)
		}
		if frag != "" && !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: err %q does not mention %q", name, err, frag)
		}
	}

	// Different universe (seed changes the fingerprint).
	u2, _, _ := buildWarm(t, 7)
	gens := map[dns.Name]uint64{}
	for _, z := range u2.InfraZones() {
		gens[z.Apex()] = z.Generation()
	}
	_, err = snapshot.Install(st, u2, cfg)
	wantMismatch("universe", err, "universe")
	for _, z := range u2.InfraZones() {
		if z.Generation() != gens[z.Apex()] {
			t.Errorf("refused Install mutated zone %s", z.Apex())
		}
	}

	// Different resolver configuration.
	cfg2 := cfg
	cfg2.QNameMinimization = !cfg2.QNameMinimization
	_, err = snapshot.Install(st, u, cfg2)
	wantMismatch("config", err, "config")

	// Fewer signed zones than the universe has.
	short := *st
	short.ZoneSigs = st.ZoneSigs[:len(st.ZoneSigs)-1]
	_, err = snapshot.Install(&short, u, cfg)
	wantMismatch("zone set", err, "signed zones")

	// A zone mutated since capture: its generation moved, the memoized
	// signatures no longer describe it. (Mutate last — it poisons u for
	// any later Install.)
	var mutated *dns.Name
	for _, z := range u.InfraZones() {
		if !z.IsSigned() {
			continue
		}
		child, err := dns.Concat("stale-probe", z.Apex())
		if err != nil {
			t.Fatal(err)
		}
		if err := z.Add(dns.RR{
			Name: child, Type: dns.TypeTXT, Class: dns.ClassIN,
			Data: &dns.TXTData{Strings: []string{"bump"}},
		}); err != nil {
			t.Fatal(err)
		}
		apex := z.Apex()
		mutated = &apex
		break
	}
	if mutated == nil {
		t.Fatal("universe has no signed infrastructure zone")
	}
	_, err = snapshot.Install(st, u, cfg)
	wantMismatch("stale generation", err, "stale")
}

// TestSnapshotInstallAllOrNothing pins that Install checks every zone's
// signature state before it imports the first: one unsound entry in the
// last zone of the state is refused with ErrCorrupt, and the zones before it
// are left without a single imported signature.
func TestSnapshotInstallAllOrNothing(t *testing.T) {
	u, cfg, ic := buildWarm(t, 8)
	st, err := snapshot.Capture(u, cfg, ic)
	if err != nil {
		t.Fatal(err)
	}
	last := st.ZoneSigs[len(st.ZoneSigs)-1]
	if len(st.ZoneSigs) < 2 || len(last.Entries) == 0 {
		t.Fatalf("fixture too small: %d zones, %d entries in the last", len(st.ZoneSigs), len(last.Entries))
	}
	last.Entries[0].Key.Type ^= 0x4000 // the RRSIG no longer covers its key

	cold, coldCfg := buildCold(t, 8)
	before := memoizedSigs(cold)
	if _, err := snapshot.Install(st, cold, coldCfg); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("Install of a damaged %s entry: err = %v, want ErrCorrupt", last.Apex, err)
	}
	if after := memoizedSigs(cold); after != before {
		t.Errorf("refused Install left %d signatures installed (had %d)", after, before)
	}
}

// TestWriteFileAtomic pins overwrite semantics: the rename replaces the
// previous file and a reader never sees a torn write.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := snapshot.WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Errorf("content = %q, want %q", got, "two")
	}
}
