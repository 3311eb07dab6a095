package core

import (
	"fmt"
	"math"
	"net/netip"
	"os"
	"slices"
	"time"

	"github.com/dnsprivacy/lookaside/internal/capture"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/snapshot"
)

// CheckpointMagic and CheckpointVersion identify a sweep checkpoint file.
// It shares the snapshot envelope (magic, version, tagged sections, crc64
// trailer) with its own magic, so the two file kinds refuse each other at
// the first four bytes.
var CheckpointMagic = [4]byte{'D', 'L', 'V', 'C'}

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// Checkpoint section tags.
const (
	ckSecMeta   = 1
	ckSecNames  = 2
	ckSecShards = 3
)

// ShardState is everything one finished audit shard contributes to the
// merged report: the audit counters, the resolver counters, the latency
// histogram, and the full capture state. A sweep checkpoint stores one per
// completed shard; restoring them into a fresh ShardedAuditor reproduces
// the merged report byte-for-byte without re-running those shards.
type ShardState struct {
	Queried       int
	StubQueries   int
	SecureAnswers int
	Servfails     int
	Stats         resolver.Stats
	Elapsed       time.Duration
	LatCount      int
	Lat           []LatBin
	Capture       *capture.State
}

// LatBin is one latency-histogram bucket.
type LatBin struct {
	Value time.Duration
	Count int
}

// ExportState snapshots the auditor's accumulated counters and capture
// state. Call it on a quiescent auditor (its workload block finished).
func (a *Auditor) ExportState() *ShardState {
	st := &ShardState{
		Queried:       a.queried,
		StubQueries:   a.stubQueries,
		SecureAnswers: a.secureAnswers,
		Servfails:     a.servfails,
		Stats:         a.r.Stats(),
		Elapsed:       a.shard.Now() - a.started,
		LatCount:      a.latCount,
		Lat:           make([]LatBin, 0, len(a.latHist)),
		Capture:       a.analyzer.ExportState(),
	}
	for v, n := range a.latHist {
		st.Lat = append(st.Lat, LatBin{Value: v, Count: n})
	}
	slices.SortFunc(st.Lat, func(x, y LatBin) int {
		return int(x.Value - y.Value)
	})
	return st
}

// Checkpoint is a resumable sweep point: which world and workload it
// belongs to, and the states of the shards that already finished.
type Checkpoint struct {
	// UniverseFP and ConfigFP pin the world; Population and Shards pin the
	// workload partition. Resume refuses any difference — a shard's block
	// depends on all four, and mixing blocks across partitions would
	// silently double- or under-count domains.
	UniverseFP string
	ConfigFP   string
	Population int
	Shards     int
	// States maps shard index → finished state.
	States map[int]*ShardState
}

// Matches reports (as an error carrying the reason) whether the checkpoint
// belongs to the given world and workload partition.
func (c *Checkpoint) Matches(universeFP, configFP string, population, shards int) error {
	switch {
	case c.UniverseFP != universeFP:
		return fmt.Errorf("%w: universe %q, checkpoint for %q", snapshot.ErrMismatch, universeFP, c.UniverseFP)
	case c.ConfigFP != configFP:
		return fmt.Errorf("%w: config %q, checkpoint for %q", snapshot.ErrMismatch, configFP, c.ConfigFP)
	case c.Population != population:
		return fmt.Errorf("%w: population %d, checkpoint for %d", snapshot.ErrMismatch, population, c.Population)
	case c.Shards != shards:
		return fmt.Errorf("%w: %d shards, checkpoint for %d", snapshot.ErrMismatch, shards, c.Shards)
	}
	return nil
}

// EncodeCheckpoint serializes a checkpoint.
func EncodeCheckpoint(c *Checkpoint) []byte {
	b := snapshot.NewBuilder(CheckpointMagic, CheckpointVersion)
	nt := snapshot.NewNameTable()

	meta := b.Section(ckSecMeta)
	meta.String(c.UniverseFP)
	meta.String(c.ConfigFP)
	meta.Uvarint(uint64(c.Population))
	meta.Uvarint(uint64(c.Shards))

	names := b.Section(ckSecNames) // filled after shard states intern refs

	sh := b.Section(ckSecShards)
	idx := make([]int, 0, len(c.States))
	for i := range c.States {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	sh.Uvarint(uint64(len(idx)))
	for _, i := range idx {
		sh.Uvarint(uint64(i))
		encodeShardState(sh, nt, c.States[i])
	}

	nt.Encode(names)
	return b.Finish()
}

// encodeShardState writes one shard's state.
func encodeShardState(e *snapshot.Enc, nt *snapshot.NameTable, st *ShardState) {
	e.Uvarint(uint64(st.Queried))
	e.Uvarint(uint64(st.StubQueries))
	e.Uvarint(uint64(st.SecureAnswers))
	e.Uvarint(uint64(st.Servfails))
	for _, v := range st.Stats.Fields() {
		e.Uvarint(uint64(*v))
	}
	e.Uvarint(uint64(st.Elapsed))
	e.Uvarint(uint64(st.LatCount))
	e.Uvarint(uint64(len(st.Lat)))
	for _, bin := range st.Lat {
		e.Uvarint(uint64(bin.Value))
		e.Uvarint(uint64(bin.Count))
	}
	encodeCaptureState(e, nt, st.Capture)
}

// encodeCaptureState writes the capture analyzer state with all maps in
// sorted key order, so checkpoint bytes are deterministic.
func encodeCaptureState(e *snapshot.Enc, nt *snapshot.NameTable, st *capture.State) {
	e.Uvarint(uint64(st.Events))
	e.Uvarint(uint64(st.BytesTotal))

	types := make([]dns.Type, 0, len(st.QueriesByType))
	for t := range st.QueriesByType {
		types = append(types, t)
	}
	slices.Sort(types)
	e.Uvarint(uint64(len(types)))
	for _, t := range types {
		e.Uvarint(uint64(t))
		e.Uvarint(uint64(st.QueriesByType[t]))
	}

	roles := make([]simnet.Role, 0, len(st.QueriesByRole))
	for r := range st.QueriesByRole {
		roles = append(roles, r)
	}
	slices.Sort(roles)
	e.Uvarint(uint64(len(roles)))
	for _, r := range roles {
		e.Uvarint(uint64(r))
		e.Uvarint(uint64(st.QueriesByRole[r]))
	}

	roles = roles[:0]
	for r := range st.BytesByRole {
		roles = append(roles, r)
	}
	slices.Sort(roles)
	e.Uvarint(uint64(len(roles)))
	for _, r := range roles {
		e.Uvarint(uint64(r))
		e.Uvarint(uint64(st.BytesByRole[r]))
	}

	e.Uvarint(uint64(st.DLVQueries))
	e.Uvarint(uint64(st.DLVNoError))
	e.Uvarint(uint64(st.DLVNXDomain))

	domains := sortedNames(st.Domains)
	e.Uvarint(uint64(len(domains)))
	for _, d := range domains {
		e.Uvarint(nt.Ref(d))
		e.Uvarint(uint64(st.Domains[d]))
	}

	e.Uvarint(uint64(len(st.HashedLabels)))
	for _, l := range st.HashedLabels {
		e.String(l)
	}

	e.Uvarint(uint64(len(st.Clients)))
	for i := range st.Clients {
		cs := &st.Clients[i]
		e.Bytes(addrBytes(cs.Client))
		e.Uvarint(uint64(cs.Queries))
		cd := sortedNames(cs.Domains)
		e.Uvarint(uint64(len(cd)))
		for _, d := range cd {
			e.Uvarint(nt.Ref(d))
			e.Uvarint(uint64(cs.Domains[d]))
		}
		cc := sortedNames(cs.Cases)
		e.Uvarint(uint64(len(cc)))
		for _, d := range cc {
			e.Uvarint(nt.Ref(d))
			e.Uvarint(uint64(cs.Cases[d]))
		}
		labels := make([]string, 0, len(cs.Hashed))
		for l := range cs.Hashed {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		e.Uvarint(uint64(len(labels)))
		for _, l := range labels {
			e.String(l)
			e.Uvarint(uint64(cs.Hashed[l]))
		}
	}
}

// DecodeCheckpoint parses checkpoint bytes. Like snapshot.Decode it is a
// pure, fully bounds-checked function of the input; binding the result to a
// live sweep (Matches) is the caller's second step.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r, err := snapshot.Parse(data, CheckpointMagic, CheckpointVersion)
	if err != nil {
		return nil, err
	}

	meta, err := r.Section(ckSecMeta)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{States: make(map[int]*ShardState)}
	if c.UniverseFP, err = meta.String(); err != nil {
		return nil, err
	}
	if c.ConfigFP, err = meta.String(); err != nil {
		return nil, err
	}
	if c.Population, err = decInt(meta); err != nil {
		return nil, err
	}
	if c.Shards, err = decInt(meta); err != nil {
		return nil, err
	}
	if err := meta.Done(); err != nil {
		return nil, err
	}

	nsec, err := r.Section(ckSecNames)
	if err != nil {
		return nil, err
	}
	names, err := snapshot.DecodeNames(nsec)
	if err != nil {
		return nil, err
	}
	if err := nsec.Done(); err != nil {
		return nil, err
	}

	sh, err := r.Section(ckSecShards)
	if err != nil {
		return nil, err
	}
	n, err := sh.Count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		idx, err := decInt(sh)
		if err != nil {
			return nil, err
		}
		if idx < 0 || (c.Shards > 0 && idx >= c.Shards) {
			return nil, fmt.Errorf("%w: shard index %d of %d", snapshot.ErrCorrupt, idx, c.Shards)
		}
		if _, dup := c.States[idx]; dup {
			return nil, fmt.Errorf("%w: duplicate shard %d", snapshot.ErrCorrupt, idx)
		}
		st, err := decodeShardState(sh, names)
		if err != nil {
			return nil, err
		}
		c.States[idx] = st
	}
	if err := sh.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// decodeShardState reads one shard's state.
func decodeShardState(d *snapshot.Dec, names []dns.Name) (*ShardState, error) {
	st := &ShardState{}
	var err error
	if st.Queried, err = decInt(d); err != nil {
		return nil, err
	}
	if st.StubQueries, err = decInt(d); err != nil {
		return nil, err
	}
	if st.SecureAnswers, err = decInt(d); err != nil {
		return nil, err
	}
	if st.Servfails, err = decInt(d); err != nil {
		return nil, err
	}
	for _, f := range st.Stats.Fields() {
		if *f, err = decInt(d); err != nil {
			return nil, err
		}
	}
	elapsed, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if elapsed > math.MaxInt64 {
		return nil, fmt.Errorf("%w: elapsed %d", snapshot.ErrCorrupt, elapsed)
	}
	st.Elapsed = time.Duration(elapsed)
	if st.LatCount, err = decInt(d); err != nil {
		return nil, err
	}
	nb, err := d.Count()
	if err != nil {
		return nil, err
	}
	st.Lat = make([]LatBin, 0, nb)
	for i := 0; i < nb; i++ {
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("%w: latency value %d", snapshot.ErrCorrupt, v)
		}
		cnt, err := decInt(d)
		if err != nil {
			return nil, err
		}
		st.Lat = append(st.Lat, LatBin{Value: time.Duration(v), Count: cnt})
	}
	if st.Capture, err = decodeCaptureState(d, names); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeCaptureState reads the capture analyzer state.
func decodeCaptureState(d *snapshot.Dec, names []dns.Name) (*capture.State, error) {
	st := &capture.State{
		QueriesByType: make(map[dns.Type]int),
		QueriesByRole: make(map[simnet.Role]int),
		BytesByRole:   make(map[simnet.Role]int64),
		Domains:       make(map[dns.Name]capture.Case),
	}
	var err error
	if st.Events, err = decInt(d); err != nil {
		return nil, err
	}
	bt, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if bt > math.MaxInt64 {
		return nil, fmt.Errorf("%w: byte total %d", snapshot.ErrCorrupt, bt)
	}
	st.BytesTotal = int64(bt)

	n, err := d.Count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		t, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if t > math.MaxUint16 {
			return nil, fmt.Errorf("%w: query type %d", snapshot.ErrCorrupt, t)
		}
		if st.QueriesByType[dns.Type(t)], err = decInt(d); err != nil {
			return nil, err
		}
	}

	if n, err = d.Count(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		role, err := decInt(d)
		if err != nil {
			return nil, err
		}
		if st.QueriesByRole[simnet.Role(role)], err = decInt(d); err != nil {
			return nil, err
		}
	}

	if n, err = d.Count(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		role, err := decInt(d)
		if err != nil {
			return nil, err
		}
		v, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("%w: role bytes %d", snapshot.ErrCorrupt, v)
		}
		st.BytesByRole[simnet.Role(role)] = int64(v)
	}

	if st.DLVQueries, err = decInt(d); err != nil {
		return nil, err
	}
	if st.DLVNoError, err = decInt(d); err != nil {
		return nil, err
	}
	if st.DLVNXDomain, err = decInt(d); err != nil {
		return nil, err
	}

	if n, err = d.Count(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		name, err := decName(d, names)
		if err != nil {
			return nil, err
		}
		c, err := decCase(d)
		if err != nil {
			return nil, err
		}
		st.Domains[name] = c
	}

	if n, err = d.Count(); err != nil {
		return nil, err
	}
	st.HashedLabels = make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := d.String()
		if err != nil {
			return nil, err
		}
		st.HashedLabels = append(st.HashedLabels, l)
	}

	if n, err = d.Count(); err != nil {
		return nil, err
	}
	st.Clients = make([]capture.ClientState, 0, n)
	for i := 0; i < n; i++ {
		cs := capture.ClientState{
			Domains: make(map[dns.Name]int),
			Cases:   make(map[dns.Name]capture.Case),
			Hashed:  make(map[string]int),
		}
		raw, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		if len(raw) > 0 {
			a, ok := netip.AddrFromSlice(raw)
			if !ok {
				return nil, fmt.Errorf("%w: %d-byte client address", snapshot.ErrCorrupt, len(raw))
			}
			cs.Client = a
		}
		if cs.Queries, err = decInt(d); err != nil {
			return nil, err
		}
		nd, err := d.Count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nd; j++ {
			name, err := decName(d, names)
			if err != nil {
				return nil, err
			}
			if cs.Domains[name], err = decInt(d); err != nil {
				return nil, err
			}
		}
		if nd, err = d.Count(); err != nil {
			return nil, err
		}
		for j := 0; j < nd; j++ {
			name, err := decName(d, names)
			if err != nil {
				return nil, err
			}
			c, err := decCase(d)
			if err != nil {
				return nil, err
			}
			cs.Cases[name] = c
		}
		if nd, err = d.Count(); err != nil {
			return nil, err
		}
		for j := 0; j < nd; j++ {
			l, err := d.String()
			if err != nil {
				return nil, err
			}
			if cs.Hashed[l], err = decInt(d); err != nil {
				return nil, err
			}
		}
		st.Clients = append(st.Clients, cs)
	}
	return st, nil
}

// SaveCheckpoint writes a checkpoint atomically (temp + rename), so a sweep
// killed mid-write leaves the previous checkpoint intact.
func SaveCheckpoint(path string, c *Checkpoint) error {
	return snapshot.WriteFileAtomic(path, EncodeCheckpoint(c))
}

// LoadCheckpoint reads and decodes a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// decInt reads a non-negative int.
func decInt(d *snapshot.Dec) (int, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, fmt.Errorf("%w: integer %d", snapshot.ErrCorrupt, v)
	}
	return int(v), nil
}

// decName reads a name-table reference.
func decName(d *snapshot.Dec, names []dns.Name) (dns.Name, error) {
	ref, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	return snapshot.NameAt(names, ref)
}

// decCase reads a leak-case value, rejecting anything but Case1/Case2.
func decCase(d *snapshot.Dec) (capture.Case, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	c := capture.Case(v)
	if c != capture.Case1 && c != capture.Case2 {
		return 0, fmt.Errorf("%w: leak case %d", snapshot.ErrCorrupt, v)
	}
	return c, nil
}

// sortedNames returns a map's name keys in canonical order.
func sortedNames[V any](m map[dns.Name]V) []dns.Name {
	out := make([]dns.Name, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b dns.Name) int { return dns.CanonicalCompare(a, b) })
	return out
}

// addrBytes serializes a client address (empty for the zero value).
func addrBytes(a netip.Addr) []byte {
	if !a.IsValid() {
		return nil
	}
	raw, _ := a.MarshalBinary()
	return raw
}
