// Package snapshot implements the warm-state snapshot: a versioned,
// checksummed binary serialization of the sealed infrastructure cache plus
// the signed-zone signature state, written after core.WarmInfra seals and
// loaded back by a fleet member or a resumed sweep in milliseconds with
// zero re-signing.
//
// The wire layout is a 4-byte magic, a version byte, then length-prefixed
// sections of uvarint fields, with all DNS names factored
// into one front-coded name table (each name stores only the prefix length
// it shares with its predecessor plus the differing suffix). A crc64
// trailer covers the whole file, so load is a validate-and-index pass over
// one contiguous buffer — no per-entry parsing surprises, no partial state
// on error.
//
// This file is the envelope and its primitives. What goes inside a section
// is written once, as a function over a Codec (codec.go), and that one
// function both encodes and decodes it.
//
// Every decode path is bounds-checked and returns an error; corrupted,
// truncated, or bit-flipped input must never panic or yield partial state
// (FuzzSnapshotDecode pins this).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// Decode/refusal errors. Load wraps these so callers can distinguish "not a
// snapshot" from "a snapshot for a different world" when logging fallbacks.
var (
	// ErrMagic: the file does not start with the expected magic bytes.
	ErrMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion: the format version is not one this build understands.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum: the crc64 trailer does not match the file contents.
	ErrChecksum = errors.New("snapshot: checksum mismatch (file corrupted)")
	// ErrTruncated: the file ends before its declared contents do.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt: a structurally malformed section (bad name, bad varint,
	// out-of-range index, trailing garbage).
	ErrCorrupt = errors.New("snapshot: corrupt section")
	// ErrMismatch: a well-formed snapshot for a different universe,
	// resolver configuration, or zone generation — stale state that must
	// not be served.
	ErrMismatch = errors.New("snapshot: state mismatch")
)

// crcTable is the ECMA polynomial table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// enc accumulates one section's payload.
type enc struct {
	tag uint32
	buf []byte
}

func (e *enc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// bytes appends a length-prefixed byte string.
func (e *enc) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// str appends a length-prefixed string.
func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// seal serializes a snapshot-family file: magic, version, tagged
// length-prefixed sections in the order given, crc64 trailer.
func seal(magic [4]byte, version uint8, secs []*enc) []byte {
	size := 4 + 1 + binary.MaxVarintLen64
	for _, e := range secs {
		size += 2*binary.MaxVarintLen64 + len(e.buf)
	}
	out := make([]byte, 0, size+8)
	out = append(out, magic[:]...)
	out = append(out, version)
	out = binary.AppendUvarint(out, uint64(len(secs)))
	for _, e := range secs {
		out = binary.AppendUvarint(out, uint64(e.tag))
		out = binary.AppendUvarint(out, uint64(len(e.buf)))
		out = append(out, e.buf...)
	}
	sum := crc64.Checksum(out, crcTable)
	out = binary.LittleEndian.AppendUint64(out, sum)
	return out
}

// section is one parsed section: a tag and a view into the file buffer.
type section struct {
	tag     uint32
	payload []byte
}

// parse validates the envelope of a snapshot-family file — magic, version,
// checksum, section framing — and indexes the sections. Payloads are views
// into data; nothing is copied or interpreted yet.
func parse(data []byte, magic [4]byte, version uint8) ([]section, error) {
	if len(data) < 4 {
		return nil, ErrTruncated
	}
	if [4]byte(data[:4]) != magic {
		return nil, ErrMagic
	}
	if len(data) < 4+1+8 {
		return nil, ErrTruncated
	}
	if data[4] != version {
		return nil, fmt.Errorf("%w: have %d, want %d", ErrVersion, data[4], version)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(trailer) {
		return nil, ErrChecksum
	}
	d := &dec{buf: body, off: 5}
	count, err := d.count()
	if err != nil {
		return nil, err
	}
	secs := make([]section, 0, count)
	for i := 0; i < count; i++ {
		tag, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if tag > 1<<31 {
			return nil, fmt.Errorf("%w: section tag %d", ErrCorrupt, tag)
		}
		payload, err := d.bytes()
		if err != nil {
			return nil, err
		}
		secs = append(secs, section{tag: uint32(tag), payload: payload})
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return secs, nil
}

// dec decodes one section payload with full bounds checking.
type dec struct {
	buf []byte
	off int
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

// uvarint reads one uvarint in its shortest form: a padded encoding of the
// same value is not what any writer produces, and accepting it would let two
// different files decode to one state.
func (d *dec) uvarint() (uint64, error) {
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: most fields
		d.off++
		return uint64(d.buf[d.off-1]), nil
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: padded varint", ErrCorrupt)
	}
	d.off += n
	return v, nil
}

// count reads an element count that the following entries must account for
// at a minimum of one byte each — rejecting absurd counts before any
// allocation is sized from them.
func (d *dec) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(d.remaining()) {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, v, d.remaining())
	}
	return int(v), nil
}

// bytes reads a length-prefixed byte string as a view into the buffer.
func (d *dec) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.remaining()) {
		return nil, ErrTruncated
	}
	p := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}

// done verifies the payload was consumed exactly.
func (d *dec) done() error {
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return nil
}

// nameTable interns every DNS name of a file once; sections reference names
// by table index. Encoding is front-coded in insertion order: each name
// stores the byte length it shares with its predecessor plus the raw
// suffix. Exports insert in sorted order, so prefixes compress well without
// the decoder needing to re-sort anything.
type nameTable struct {
	names []dns.Name
	index map[dns.Name]uint64
}

// ref interns n and returns its table index.
func (t *nameTable) ref(n dns.Name) uint64 {
	if i, ok := t.index[n]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[dns.Name]uint64)
	}
	i := uint64(len(t.names))
	t.names = append(t.names, n)
	t.index[n] = i
	return i
}

// encode writes the table as one section payload.
func (t *nameTable) encode(e *enc) {
	e.uvarint(uint64(len(t.names)))
	prev := ""
	for _, n := range t.names {
		s := string(n)
		shared := 0
		for shared < len(prev) && shared < len(s) && prev[shared] == s[shared] {
			shared++
		}
		e.uvarint(uint64(shared))
		e.str(s[shared:])
		prev = s
	}
}

// decode reads a front-coded name table, validating that every entry is a
// canonical DNS name (lowercase, trailing dot, legal labels) — the names
// feed map keys across the resolver, so a corrupted table must be refused
// here, not discovered at lookup time — and that the table is the one
// encode would write for these names: no name twice, every shared prefix
// as long as it can be.
func (t *nameTable) decode(d *dec) error {
	count, err := d.count()
	if err != nil {
		return err
	}
	t.names = make([]dns.Name, 0, count)
	t.index = make(map[dns.Name]uint64, count)
	var prev []byte // the previous name; the next is built over its prefix
	for i := 0; i < count; i++ {
		shared, err := d.uvarint()
		if err != nil {
			return err
		}
		if shared > uint64(len(prev)) {
			return fmt.Errorf("%w: name %d shares %d bytes of a %d-byte predecessor",
				ErrCorrupt, i, shared, len(prev))
		}
		suffix, err := d.bytes()
		if err != nil {
			return err
		}
		if int(shared) < len(prev) && len(suffix) > 0 && prev[shared] == suffix[0] {
			return fmt.Errorf("%w: name %d shares more than the %d bytes it declares", ErrCorrupt, i, shared)
		}
		prev = append(prev[:shared], suffix...)
		s := string(prev)
		canon, err := dns.MakeName(s)
		if err != nil {
			return fmt.Errorf("%w: name %d: %v", ErrCorrupt, i, err)
		}
		if string(canon) != s {
			return fmt.Errorf("%w: name %d %q is not canonical", ErrCorrupt, i, s)
		}
		if t.ref(canon) != uint64(i) {
			return fmt.Errorf("%w: name %d %q is in the table twice", ErrCorrupt, i, s)
		}
	}
	return nil
}
