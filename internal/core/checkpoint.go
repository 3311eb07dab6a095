package core

import (
	"cmp"
	"fmt"
	"math"
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
func EncodeCheckpoint(ck *Checkpoint) []byte {
	c := snapshot.NewEncoder(CheckpointMagic, CheckpointVersion)
	checkpointLayout(c, ck)
	return c.Finish()
}

// DecodeCheckpoint parses checkpoint bytes. Like snapshot.Decode it is a
// pure, fully bounds-checked function of the input; binding the result to a
// live sweep (Matches) is the caller's second step.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c, err := snapshot.NewDecoder(data, CheckpointMagic, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{}
	checkpointLayout(c, ck)
	if err := c.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkpointLayout is the DLVC version-1 file: the sections in order and,
// through the functions below, every field of a shard's state, with every
// map in sorted key order so the bytes are deterministic. Changing any of
// them — a new resolver.Stats field included, since Fields() enumerates the
// counters written — changes the bytes (TestCheckpointGoldenBytes) and
// needs a CheckpointVersion bump.
func checkpointLayout(c *snapshot.Codec, ck *Checkpoint) {
	c.Section(ckSecMeta)
	snapshot.String(c, &ck.UniverseFP)
	snapshot.String(c, &ck.ConfigFP)
	snapshot.Count(c, &ck.Population)
	snapshot.Count(c, &ck.Shards)
	c.NameTable(ckSecNames)
	c.Section(ckSecShards)
	// A shard index outside the declared partition is refused; an encoder
	// writes whatever it is handed.
	maxIndex := uint64(math.MaxInt64)
	if ck.Shards > 0 {
		maxIndex = uint64(ck.Shards - 1)
	}
	shardIndex := func(c *snapshot.Codec, i *int) { snapshot.Num(c, i, maxIndex, "shard index") }
	snapshot.Map(c, &ck.States, cmp.Compare[int], shardIndex, shardState)
}

func shardState(c *snapshot.Codec, p **ShardState) {
	if c.Decoding() {
		*p = &ShardState{Capture: &capture.State{}}
	}
	st := *p
	snapshot.Count(c, &st.Queried)
	snapshot.Count(c, &st.StubQueries)
	snapshot.Count(c, &st.SecureAnswers)
	snapshot.Count(c, &st.Servfails)
	for _, f := range st.Stats.Fields() {
		snapshot.Count(c, f)
	}
	snapshot.Count(c, &st.Elapsed)
	snapshot.Count(c, &st.LatCount)
	snapshot.Slice(c, &st.Lat, latBin)
	captureState(c, st.Capture)
}

func latBin(c *snapshot.Codec, b *LatBin) {
	snapshot.Count(c, &b.Value)
	snapshot.Count(c, &b.Count)
}

func captureState(c *snapshot.Codec, st *capture.State) {
	snapshot.Count(c, &st.Events)
	snapshot.Count(c, &st.BytesTotal)
	snapshot.Map(c, &st.QueriesByType, cmp.Compare[dns.Type], queryType, snapshot.Count[int])
	snapshot.Map(c, &st.QueriesByRole, cmp.Compare[simnet.Role], snapshot.Count[simnet.Role], snapshot.Count[int])
	snapshot.Map(c, &st.BytesByRole, cmp.Compare[simnet.Role], snapshot.Count[simnet.Role], snapshot.Count[int64])
	snapshot.Count(c, &st.DLVQueries)
	snapshot.Count(c, &st.DLVNoError)
	snapshot.Count(c, &st.DLVNXDomain)
	snapshot.Map(c, &st.Domains, dns.CanonicalCompare, snapshot.Name, leakCase)
	snapshot.Slice(c, &st.HashedLabels, snapshot.String)
	snapshot.Slice(c, &st.Clients, clientState)
}

func clientState(c *snapshot.Codec, cs *capture.ClientState) {
	snapshot.Addr(c, &cs.Client)
	snapshot.Count(c, &cs.Queries)
	snapshot.Map(c, &cs.Domains, dns.CanonicalCompare, snapshot.Name, snapshot.Count[int])
	snapshot.Map(c, &cs.Cases, dns.CanonicalCompare, snapshot.Name, leakCase)
	snapshot.Map(c, &cs.Hashed, cmp.Compare[string], snapshot.String, snapshot.Count[int])
}

func queryType(c *snapshot.Codec, t *dns.Type) {
	snapshot.Num(c, t, math.MaxUint16, "query type")
}

// leakCase moves a leak-case value, refusing anything but Case1 / Case2.
func leakCase(c *snapshot.Codec, v *capture.Case) {
	snapshot.Num(c, v, uint64(capture.Case2), "leak case")
	if *v < capture.Case1 {
		c.Corrupt("leak case %d", *v)
	}
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
