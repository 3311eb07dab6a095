package zone

// Lazy owner-name materialization. A SynthSource extends a zone with a
// (possibly very large) universe of owner names whose records are derivable
// on demand: the source publishes the complete sorted owner index up front —
// so existence checks, delegation cuts, and NSEC chain arithmetic are exact
// and independent of which names have been touched — while the records
// themselves (NS/DS sets, glue addresses, DLV deposits) are computed only
// when a query first needs them. A paper-scale TLD zone with a million
// delegations costs one index, not a million RRsets.
//
// Materialized records live in a small recency-bounded cache (gencache) that
// never contributes to the zone generation counter: a synth-backed zone
// serves byte-identical responses before a record is materialized, while it
// is held, and after it has been dropped and derived again, so authoritative
// packet caches (keyed on Generation) stay valid throughout.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/gencache"
)

// SynthKind classifies a synthesized owner name; it determines the record
// types present at the name (the NSEC type bitmap) before materialization.
type SynthKind uint8

// Synthesized owner kinds.
const (
	// SynthCut is an unsigned delegation point: NS only.
	SynthCut SynthKind = iota + 1
	// SynthSecureCut is a delegation with a DS deposit: NS + DS.
	SynthSecureCut
	// SynthGlue is an in-zone name-server address record: A only.
	SynthGlue
	// SynthLeaf is an authoritative leaf RRset of a single type (Aux-typed),
	// e.g. a DLV deposit in the look-aside registry.
	SynthLeaf
)

// SynthEntry names one synthesized owner. Aux is opaque to the zone; sources
// use it to carry derivation context (a hosting-pool index, a record type).
type SynthEntry struct {
	Name dns.Name
	Kind SynthKind
	Aux  uint32
}

// SynthSource derives zone content on demand.
//
// SynthIndex returns every synthesized owner name exactly once. The zone
// reads it once, on first use (under the zone lock), into its own sorted
// index and does not keep the slice, so the call must be deterministic but
// need not be cheap. Names must not collide with static zone content and
// must not nest under one another or under static cuts.
//
// SynthRecords returns the full record set owned by e.Name. Types must match
// e.Kind (SynthCut: NS; SynthSecureCut: NS+DS; SynthGlue: A; SynthLeaf: the
// Aux type). A zero TTL is filled with the zone default, mirroring Add and
// Delegate. The zone takes the returned slice as its own. The result must be
// deterministic: the zone holds it only while it is recently used and derives
// it again on a later query.
type SynthSource interface {
	SynthIndex() []SynthEntry
	SynthRecords(e SynthEntry) ([]dns.RR, error)
}

// AttachSynth installs a lazy record source. It counts as one content
// mutation (the zone's served universe changes); subsequent materializations
// do not change the generation.
func (z *Zone) AttachSynth(src SynthSource) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.gen++
	z.synth = &synthIndex{src: src, records: gencache.New[dns.Name, []dns.RR](genCacheSpan)}
}

// synthIndex is a SynthSource's sorted owner index, built on first use, and
// the records of recently materialized owners. Neither affects gen: a
// synth-backed zone serves the same bytes whether or not a name's records
// are currently held.
type synthIndex struct {
	src     SynthSource
	ready   bool
	keys    []byte
	off     []uint32
	kind    []SynthKind
	aux     []uint32
	records gencache.Cache[dns.Name, []dns.RR]
}

// MaterializedNames returns how many synthesized owners currently hold
// derived records (tests and memory introspection); at most genCacheCap.
func (z *Zone) MaterializedNames() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.synth == nil {
		return 0
	}
	return z.synth.records.Len()
}

// synthEnsureLocked builds the sorted owner index on first use. Entry i is
// its sort key keys[off[i]:off[i+1]] (dns.AppendSortKey), laid
// end to end in canonical order, with its kind and aux alongside; the name
// is not stored, since the key is the name (dns.NameFromSortKey). A byte
// arena and three flat arrays hold no pointers, so a million-owner index is
// four objects and adds nothing for the collector to trace; a name or a key
// per entry as its own string would.
func (z *Zone) synthEnsureLocked() {
	s := z.synth
	if s == nil || s.ready {
		return
	}
	idx := s.src.SynthIndex()
	size := 0
	for i := range idx {
		size += len(idx[i].Name)
	}
	// Keys in source order first, then sorted by memcmp on them.
	keys, off := make([]byte, 0, size), make([]uint32, len(idx)+1)
	for i := range idx {
		keys = dns.AppendSortKey(keys, idx[i].Name)
		off[i+1] = uint32(len(keys))
	}
	key := func(i uint32) []byte { return keys[off[i]:off[i+1]] }
	ents := prefixSorted(len(idx), key)
	s.keys, s.off = make([]byte, 0, len(keys)), make([]uint32, len(idx)+1)
	s.kind, s.aux = make([]SynthKind, len(idx)), make([]uint32, len(idx))
	for i, e := range ents {
		s.keys = append(s.keys, key(e.at)...)
		s.off[i+1] = uint32(len(s.keys))
		s.kind[i], s.aux[i] = idx[e.at].Kind, idx[e.at].Aux
	}
	s.ready = true
}

// prefixEnt is one key to sort: the 8 bytes that follow the prefix every key
// shares, big-endian and zero-padded, and the key's position.
type prefixEnt struct {
	prefix uint64
	at     uint32
}

// prefixSorted returns positions 0..n-1 in bytes.Compare order of key(i).
// Every owner of a zone sits under its apex, so every key starts with the
// apex's key; the sort compares the next 8 bytes as one integer and falls
// back to bytes.Compare only on a tie. A zero-padded prefix can tie with a
// longer key whose next bytes are zeros (the label separator), and the
// fallback orders that tie exactly.
func prefixSorted(n int, key func(i uint32) []byte) []prefixEnt {
	ents := make([]prefixEnt, n)
	if n == 0 {
		return ents
	}
	// common is the length of the prefix all keys share.
	first := key(0)
	common := len(first)
	for i := 1; i < n && common > 0; i++ {
		k := key(uint32(i))
		if len(k) < common {
			common = len(k)
		}
		for j := 0; j < common; j++ {
			if k[j] != first[j] {
				common = j
				break
			}
		}
	}
	for i := range ents {
		var buf [8]byte
		copy(buf[:], key(uint32(i))[common:])
		ents[i] = prefixEnt{prefix: binary.BigEndian.Uint64(buf[:]), at: uint32(i)}
	}
	slices.SortFunc(ents, func(a, b prefixEnt) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		return bytes.Compare(key(a.at), key(b.at))
	})
	return ents
}

// key returns the sort key of index entry i.
func (s *synthIndex) key(i int) []byte { return s.keys[s.off[i]:s.off[i+1]] }

// name decodes the owner name of index entry i from its key.
func (s *synthIndex) name(i int) dns.Name { return dns.NameFromSortKey(s.key(i)) }

// owner is a name with its place in the synthesized owner index resolved.
// Lookup resolves the query name once and hands the result to every
// primitive that asks about that name; at a million owners the search is
// the cost, not the question asked of its result.
type owner struct {
	name dns.Name
	// at is the position of the first index entry that does not sort before
	// name; synth reports whether that entry is name itself.
	at    int
	synth bool
}

// ownerLocked resolves name against the synthesized index: one binary
// search by memcmp on a probe key built on the stack. The apex needs no
// search — it sorts before every name in its zone, position 0 — so apex
// queries (all an infrastructure warm-up asks of a TLD) leave the index
// unbuilt.
func (z *Zone) ownerLocked(name dns.Name) owner {
	if z.synth == nil || name == z.apex {
		return owner{name: name}
	}
	z.synthEnsureLocked()
	s := z.synth
	var buf [256]byte
	key := dns.AppendSortKey(buf[:0], name)
	at := sort.Search(len(s.kind), func(i int) bool {
		return bytes.Compare(s.key(i), key) >= 0
	})
	return owner{name: name, at: at, synth: at < len(s.kind) && bytes.Equal(s.key(at), key)}
}

// hasDescendantLocked reports whether any owner, static or synthesized,
// exists strictly below o. Canonical order puts descendants right after
// their ancestor, so in each index the entry after o's place tells: a static
// name below o's, or a synthesized key that starts with o's.
func (z *Zone) hasDescendantLocked(o owner) bool {
	z.ensureSortedLocked()
	i, found := z.searchLocked(o.name)
	if found {
		i++
	}
	if i < len(z.owners) && z.owners[i].name.IsSubdomainOf(o.name) {
		return true
	}
	z.synthEnsureLocked() // the apex resolves without building the index
	i = o.at
	if o.synth {
		i++
	}
	var buf [256]byte
	return z.synth != nil && i < len(z.synth.kind) && bytes.HasPrefix(z.synth.key(i), dns.AppendSortKey(buf[:0], o.name))
}

// types reports the record types present at an entry of this kind.
func (k SynthKind) types(aux uint32) []dns.Type {
	switch k {
	case SynthCut:
		return []dns.Type{dns.TypeNS}
	case SynthSecureCut:
		return []dns.Type{dns.TypeNS, dns.TypeDS}
	case SynthGlue:
		return []dns.Type{dns.TypeA}
	case SynthLeaf:
		return []dns.Type{dns.Type(aux)}
	}
	return nil
}

// isCut reports whether the entry is a delegation point.
func (k SynthKind) isCut() bool { return k == SynthCut || k == SynthSecureCut }

// synthRecordsLocked returns every record the synthesized owner o holds,
// deriving them when the cache does not hold them yet, or no longer.
func (z *Zone) synthRecordsLocked(o owner) ([]dns.RR, error) {
	s := z.synth
	if rrs, ok := s.records.Get(o.name); ok {
		return rrs, nil
	}
	rrs, err := s.src.SynthRecords(SynthEntry{Name: o.name, Kind: s.kind[o.at], Aux: s.aux[o.at]})
	if err != nil {
		return nil, fmt.Errorf("zone %s: materializing %s: %w", z.apex, o.name, err)
	}
	for i := range rrs {
		if rrs[i].TTL == 0 {
			rrs[i].TTL = z.ttl
		}
	}
	// Grouped by type, order within a type kept, so rrsetLocked can hand out
	// an RRset as a sub-slice.
	slices.SortStableFunc(rrs, func(a, b dns.RR) int { return cmp.Compare(a.Type, b.Type) })
	s.records.Put(o.name, rrs)
	return rrs, nil
}

// Merged static+synth primitives. Lookup and the NSEC chain operate on the
// union of the two owner universes through these.

// existsLocked reports whether o owns records (static or synthesized).
func (z *Zone) existsLocked(o owner) bool {
	return o.synth || z.staticLocked(o.name) != nil
}

// isCutLocked reports whether o is a delegation point.
func (z *Zone) isCutLocked(o owner) bool {
	if o.synth {
		return z.synth.kind[o.at].isCut()
	}
	e := z.staticLocked(o.name)
	return e != nil && e.cut
}

// rrsetLocked returns the records of (o, type), materializing synthesized
// content when needed. A nil set with nil error means the type is absent.
// Static and synthesized records are both held grouped by type, so the set
// is one run of either.
func (z *Zone) rrsetLocked(o owner, typ dns.Type) ([]dns.RR, error) {
	if !o.synth {
		if e := z.staticLocked(o.name); e != nil {
			return typeRun(e.rrs, typ), nil
		}
		return nil, nil
	}
	if !dns.HasType(z.synth.kind[o.at].types(z.synth.aux[o.at]), typ) {
		return nil, nil
	}
	rrs, err := z.synthRecordsLocked(o)
	if err != nil {
		return nil, err
	}
	return typeRun(rrs, typ), nil
}

// mergedTypesAtLocked returns the types present at o across both universes
// (the NSEC type bitmap), in a slice of its own. Static and synthesized
// owners never coincide, so one side is always empty.
func (z *Zone) mergedTypesAtLocked(o owner) []dns.Type {
	if o.synth {
		return z.synth.kind[o.at].types(z.synth.aux[o.at])
	}
	var types []dns.Type
	if e := z.staticLocked(o.name); e != nil {
		for i, rr := range e.rrs {
			if i == 0 || rr.Type != e.rrs[i-1].Type {
				types = append(types, rr.Type)
			}
		}
	}
	return types
}

// mergedVisibleLocked extends visibleLocked across synthesized cuts.
func (z *Zone) mergedVisibleLocked(name dns.Name) bool {
	for n := name.Parent(); n != z.apex && !n.IsRoot(); n = n.Parent() {
		if z.isCutLocked(z.ownerLocked(n)) {
			return false
		}
	}
	return true
}

// staticAfterLocked returns the first visible static owner strictly after
// name in canonical order.
func (z *Zone) staticAfterLocked(name dns.Name) (dns.Name, bool) {
	z.ensureSortedLocked()
	i, found := z.searchLocked(name)
	if found {
		i++
	}
	for ; i < len(z.owners); i++ {
		if z.mergedVisibleLocked(z.owners[i].name) {
			return z.owners[i].name, true
		}
	}
	return "", false
}

// staticBeforeLocked returns the last visible static owner strictly before
// name in canonical order.
func (z *Zone) staticBeforeLocked(name dns.Name) (dns.Name, bool) {
	z.ensureSortedLocked()
	i, _ := z.searchLocked(name)
	for i--; i >= 0; i-- {
		if z.mergedVisibleLocked(z.owners[i].name) {
			return z.owners[i].name, true
		}
	}
	return "", false
}

// synthAfterLocked and synthBeforeLocked are the synthesized-index analogues,
// read off o's resolved position without a further search, the name decoded
// from the entry's key. The predecessor comes back as an owner: the denial
// that asked for it goes on to build that name's NSEC.
func (z *Zone) synthAfterLocked(o owner) (dns.Name, bool) {
	z.synthEnsureLocked() // the apex resolves without building the index
	i := o.at
	if o.synth {
		i++
	}
	for ; z.synth != nil && i < len(z.synth.kind); i++ {
		if name := z.synth.name(i); z.mergedVisibleLocked(name) {
			return name, true
		}
	}
	return "", false
}

func (z *Zone) synthBeforeLocked(o owner) (owner, bool) {
	for i := o.at - 1; i >= 0; i-- {
		if name := z.synth.name(i); z.mergedVisibleLocked(name) {
			return owner{name: name, at: i, synth: true}, true
		}
	}
	return owner{}, false
}
