package snapshot

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// Magic and Version identify a warm-state snapshot file.
var Magic = [4]byte{'D', 'L', 'V', 'S'}

// Version is the current format version; Parse refuses any other.
const Version = 1

// Section tags.
const (
	secMeta     = 1 // universe + config fingerprints
	secNames    = 2 // front-coded name table
	secDeleg    = 3 // shared delegations
	secOutcomes = 4 // per-zone validation outcomes
	secSpans    = 5 // validated NSEC span stores
	secZoneSig  = 6 // per-zone memoized RRSIGs + generation pins
)

// State is a fully decoded snapshot, not yet bound to a universe. Decode
// produces it from bytes (pure parsing — fuzzable without a universe);
// Install verifies it against a live universe and configuration before any
// of it becomes visible.
type State struct {
	// UniverseFP and ConfigFP pin the world the state was warmed under.
	UniverseFP string
	ConfigFP   string
	// Infra is the exported infrastructure cache.
	Infra *resolver.InfraState
	// ZoneSigs carries each signed infrastructure zone's memoized
	// signatures, generation-pinned.
	ZoneSigs []*zone.SigState
}

// Capture assembles the warm state of a universe: the sealed infrastructure
// cache plus every signed infrastructure zone's signature state.
func Capture(u *universe.Universe, cfg resolver.Config, ic *resolver.Cache) (*State, error) {
	infra, err := ic.Export()
	if err != nil {
		return nil, err
	}
	st := &State{
		UniverseFP: u.Fingerprint(),
		ConfigFP:   cfg.WarmFingerprint(),
		Infra:      infra,
	}
	for _, z := range u.InfraZones() {
		if sig := z.ExportSigState(); sig != nil {
			st.ZoneSigs = append(st.ZoneSigs, sig)
		}
	}
	return st, nil
}

// Encode serializes a state to snapshot bytes.
func Encode(st *State) []byte {
	c := newEncoder()
	layout(c, st)
	return c.Finish()
}

// Decode parses snapshot bytes into a State. It is a pure function of the
// input: no universe required, nothing installed, and malformed input of
// any kind — truncation, corruption, bit flips — returns an error without
// panicking (FuzzSnapshotDecode pins this).
func Decode(data []byte) (*State, error) {
	c, err := newDecoder(data)
	if err != nil {
		return nil, err
	}
	st := &State{Infra: &resolver.InfraState{}}
	layout(c, st)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// layout is the DLVS version-1 file: the sections in order and, through the
// functions below, every field of each. Changing any of them changes the
// bytes (TestSnapshotGoldenBytes) and needs a Version bump.
func layout(c *Codec, st *State) {
	c.Section(secMeta)
	String(c, &st.UniverseFP)
	String(c, &st.ConfigFP)
	c.NameTable(secNames)
	c.Section(secDeleg)
	Slice(c, &st.Infra.Delegations, delegation)
	c.Section(secOutcomes)
	Slice(c, &st.Infra.Outcomes, outcome)
	c.Section(secSpans)
	Slice(c, &st.Infra.Spans, spanSet)
	c.Section(secZoneSig)
	Slice(c, &st.ZoneSigs, zoneSigs)
}

func delegation(c *Codec, d *resolver.InfraDelegation) {
	Name(c, &d.Name)
	Name(c, &d.Parent)
	Slice(c, &d.Servers, server)
}

func server(c *Codec, s *resolver.InfraServer) {
	Name(c, &s.Name)
	Addr(c, &s.Addr)
}

func outcome(c *Codec, o *resolver.InfraOutcome) {
	Name(c, &o.Name)
	// Any byte round-trips; RestoreInfra refuses the ones that are not a status.
	Num(c, &o.Status, math.MaxUint8, "validation status")
	var flags uint8
	if o.Signed {
		flags |= 1
	}
	if o.ViaDLV {
		flags |= 2
	}
	Num(c, &flags, 3, "outcome flags")
	if c.Decoding() {
		o.Signed, o.ViaDLV = flags&1 != 0, flags&2 != 0
	}
	Slice(c, &o.Keys, dnskey)
}

func dnskey(c *Codec, p **dns.DNSKEYData) {
	if c.Decoding() {
		*p = &dns.DNSKEYData{}
	}
	k := *p
	Num(c, &k.Flags, math.MaxUint16, "DNSKEY flags")
	Num(c, &k.Protocol, math.MaxUint8, "DNSKEY protocol")
	Num(c, &k.Algorithm, math.MaxUint8, "DNSKEY algorithm")
	Bytes(c, &k.PublicKey)
}

func spanSet(c *Codec, set *resolver.InfraSpanSet) {
	Name(c, &set.Zone)
	Num(c, &set.Limit, math.MaxInt32, "span limit")
	Slice(c, &set.Spans, span)
}

func span(c *Codec, sp *resolver.InfraSpan) {
	Name(c, &sp.Owner)
	Name(c, &sp.Next)
	Num(c, &sp.Expires, math.MaxUint32, "span expiry")
}

func zoneSigs(c *Codec, p **zone.SigState) {
	if c.Decoding() {
		*p = &zone.SigState{}
	}
	zs := *p
	Name(c, &zs.Apex)
	Num(c, &zs.Generation, math.MaxUint64, "zone generation")
	Slice(c, &zs.Entries, sigEntry)
}

// sigEntry is one memoized signature: the RRset key, the RR's TTL, then the
// RRSIG payload fields, each bounded by its wire width. The RRSIG's owner,
// type and class are the key's and are not stored twice.
func sigEntry(c *Codec, e *zone.SigEntry) {
	data, _ := e.Sig.Data.(*dns.RRSIGData)
	if c.Decoding() {
		data = &dns.RRSIGData{}
	}
	Name(c, &e.Key.Name)
	Num(c, &e.Key.Type, math.MaxUint16, "RRset type")
	Num(c, &e.Key.Class, math.MaxUint16, "RRset class")
	Num(c, &e.Sig.TTL, math.MaxUint32, "RRSIG TTL")
	Num(c, &data.TypeCovered, math.MaxUint16, "RRSIG type covered")
	Num(c, &data.Algorithm, math.MaxUint8, "RRSIG algorithm")
	Num(c, &data.Labels, math.MaxUint8, "RRSIG labels")
	Num(c, &data.OriginalTTL, math.MaxUint32, "RRSIG original TTL")
	Num(c, &data.Expiration, math.MaxUint32, "RRSIG expiration")
	Num(c, &data.Inception, math.MaxUint32, "RRSIG inception")
	Num(c, &data.KeyTag, math.MaxUint16, "RRSIG key tag")
	Name(c, &data.SignerName)
	Bytes(c, &data.Signature)
	if c.Decoding() {
		e.Sig.Name, e.Sig.Type, e.Sig.Class, e.Sig.Data = e.Key.Name, dns.TypeRRSIG, e.Key.Class, data
	}
}

// Install verifies a decoded state against the live universe and resolver
// configuration, then makes it real: a sealed infrastructure cache is
// rebuilt and every signed infrastructure zone gets its memoized signatures
// back. All checks — both fingerprints, the zone set, every per-zone
// generation, and the soundness of every signature entry of every zone —
// run before anything is installed, so a refused snapshot leaves the
// universe untouched.
func Install(st *State, u *universe.Universe, cfg resolver.Config) (*resolver.Cache, error) {
	if fp := u.Fingerprint(); st.UniverseFP != fp {
		return nil, fmt.Errorf("%w: universe %q, snapshot built for %q", ErrMismatch, fp, st.UniverseFP)
	}
	if fp := cfg.WarmFingerprint(); st.ConfigFP != fp {
		return nil, fmt.Errorf("%w: resolver config %q, snapshot built for %q", ErrMismatch, fp, st.ConfigFP)
	}
	zones := make(map[dns.Name]*zone.Zone)
	signedCount := 0
	for _, z := range u.InfraZones() {
		zones[z.Apex()] = z
		if z.IsSigned() {
			signedCount++
		}
	}
	if len(st.ZoneSigs) != signedCount {
		return nil, fmt.Errorf("%w: snapshot carries %d signed zones, universe has %d",
			ErrMismatch, len(st.ZoneSigs), signedCount)
	}
	for _, zs := range st.ZoneSigs {
		z, ok := zones[zs.Apex]
		if !ok {
			return nil, fmt.Errorf("%w: snapshot zone %s not in universe", ErrMismatch, zs.Apex)
		}
		if !z.IsSigned() {
			return nil, fmt.Errorf("%w: snapshot zone %s unsigned in universe", ErrMismatch, zs.Apex)
		}
		if gen := z.Generation(); zs.Generation != gen {
			return nil, fmt.Errorf("%w: zone %s at generation %d, snapshot at %d (stale)",
				ErrMismatch, zs.Apex, gen, zs.Generation)
		}
		// Apex, signing and generation hold; what remains is a structurally
		// unsound entry.
		if err := z.CheckSigState(zs); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	ic, err := resolver.RestoreInfra(st.Infra)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for _, zs := range st.ZoneSigs {
		// Checked above; only a zone mutated in between can still refuse.
		if err := zones[zs.Apex].ImportSigState(zs); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return ic, nil
}

// Save captures the warm state and writes it atomically (temp file + rename
// in the destination directory), so a crashed save never leaves a torn file
// where a later boot would look for a snapshot.
func Save(path string, u *universe.Universe, cfg resolver.Config, ic *resolver.Cache) error {
	st, err := Capture(u, cfg, ic)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, Encode(st))
}

// Load reads, decodes, verifies, and installs a snapshot, returning the
// restored sealed infrastructure cache. Any failure — unreadable file, bad
// envelope, corrupt section, fingerprint or generation mismatch — returns an
// error with nothing installed; callers fall back to a live warm-up.
func Load(path string, u *universe.Universe, cfg resolver.Config) (*resolver.Cache, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return Install(st, u, cfg)
}

// WriteFileAtomic writes data to path via a temp file and rename.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
