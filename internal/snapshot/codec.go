package snapshot

import (
	"fmt"
	"math"
	"net/netip"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// Codec walks a snapshot file in one direction: built by newEncoder it
// appends, built by newDecoder it reads. A section's layout is one plain
// function over (*Codec, *T) that lists the moves in file order; the
// direction is the Codec's, so the field order and every bound are written
// once and Encode and Decode cannot drift apart.
//
// The first failure sticks: every later move is a no-op, and Done returns
// it. Only a decoder can fail — an encoder writes what it is given.
//
// Reading is the exact inverse of writing, not a superset of it: varints in
// their shortest form, sections in layout order with none left over, the
// name table holding exactly the names the sections use in the order they
// first use them. A file the decoder accepts is therefore byte for byte the
// file the encoder writes for the decoded state (the fuzz target and the
// hostile-disk test assert it), so no bit of a payload is ignored and a
// damaged file is refused rather than read as some neighbouring state.
type Codec struct {
	err     error
	reading bool

	// The file's name table: interned as names are moved when writing,
	// decoded up front when reading. used counts the names moved so far.
	table nameTable
	used  uint64

	// Writing: sections in file order, the reserved name-table section.
	out     []*enc
	enc     *enc
	tableAt *enc

	// Reading: the indexed file and the section being read.
	secs []section
	dec  dec
}

// newEncoder starts a file.
func newEncoder() *Codec { return &Codec{} }

// newDecoder validates the envelope of data (magic, version, crc64 trailer,
// section framing) and returns a Codec that reads its sections.
func newDecoder(data []byte) (*Codec, error) {
	secs, err := parse(data)
	if err != nil {
		return nil, err
	}
	return &Codec{reading: true, secs: secs}, nil
}

// Decoding reports the direction, for the few layouts that must build what
// they read into (a pointer to allocate, a record to assemble).
func (c *Codec) Decoding() bool { return c.reading }

// Corrupt refuses the input with ErrCorrupt. Layouts call it for conditions
// a single bounded move cannot express; it does nothing while encoding.
func (c *Codec) Corrupt(format string, args ...any) {
	if c.reading && c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Section makes the section with the given tag the one the following moves
// address. Reading, the previous section must have been consumed exactly and
// this one must come next in the file: a format built on this envelope has
// no optional, repeated or reordered sections.
func (c *Codec) Section(tag uint32) {
	if !c.reading {
		c.enc = &enc{tag: tag}
		c.out = append(c.out, c.enc)
		return
	}
	if c.closeSection(); c.err != nil {
		return
	}
	if len(c.secs) == 0 || c.secs[0].tag != tag {
		c.Corrupt("section %d is not the next in the file", tag)
		return
	}
	c.dec = dec{buf: c.secs[0].payload}
	c.secs = c.secs[1:]
}

// closeSection checks that the section being read has no bytes left over.
func (c *Codec) closeSection() {
	if c.err == nil {
		c.err = c.dec.done()
	}
}

// NameTable places the front-coded name table every Name move refers to.
// Reading, it is decoded here, so it precedes the sections that use it;
// writing, the slot is reserved here and filled by Finish, once every name
// has been interned.
func (c *Codec) NameTable(tag uint32) {
	c.Section(tag)
	if !c.reading {
		c.tableAt = c.enc
	} else if c.err == nil {
		c.err = c.table.decode(&c.dec)
	}
}

// Finish serializes the encoded file.
func (c *Codec) Finish() []byte {
	if c.tableAt != nil {
		c.table.encode(c.tableAt)
	}
	return seal(c.out)
}

// Done ends a decode: the last section must be consumed exactly, none may be
// left unread, and every name in the table must have been referred to. The
// first failure of the walk, if any, is returned.
func (c *Codec) Done() error {
	c.closeSection()
	if len(c.secs) != 0 {
		c.Corrupt("%d sections after the last one of the format", len(c.secs))
	}
	if unused := uint64(len(c.table.names)) - c.used; unused != 0 {
		c.Corrupt("%d of %d names never referred to", unused, len(c.table.names))
	}
	return c.err
}

// readNum reads one uvarint no larger than max; after a failure it yields 0.
func (c *Codec) readNum(max uint64, what string) uint64 {
	if c.err != nil {
		return 0
	}
	var u uint64
	if u, c.err = c.dec.uvarint(); u > max {
		c.Corrupt("%s %d exceeds %d", what, u, max)
		return 0
	}
	return u
}

// blob moves one length-prefixed byte string; reading, the result is a view
// into the file buffer that the caller must copy out of.
func (c *Codec) blob(p []byte) []byte {
	if !c.reading {
		c.enc.bytes(p)
		return p
	}
	if c.err != nil {
		return nil
	}
	p, c.err = c.dec.bytes()
	return p
}

// count moves an element count. Reading, it is checked against the bytes
// left in the section (dec.count) before anything is allocated from it.
func (c *Codec) count(n int) int {
	if !c.reading {
		c.enc.uvarint(uint64(n))
		return n
	}
	if c.err != nil {
		return 0
	}
	n, c.err = c.dec.count()
	return n
}

// Num moves an integer as a uvarint. max is the largest value the field can
// hold (its wire width, or a tighter domain bound); a decoded value above it
// is ErrCorrupt, named by what.
func Num[T ~int | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64](c *Codec, v *T, max uint64, what string) {
	if !c.reading {
		c.enc.uvarint(uint64(*v))
		return
	}
	*v = T(c.readNum(max, what))
}

// String moves a length-prefixed string (copied out of the file buffer).
func String(c *Codec, s *string) {
	if !c.reading {
		c.enc.str(*s)
	} else if p := c.blob(nil); c.err == nil {
		*s = string(p)
	}
}

// Bytes moves a length-prefixed byte string. Reading copies it out of the
// file buffer (nil when empty), so a decoded state never aliases the file.
func Bytes(c *Codec, p *[]byte) {
	if raw := c.blob(*p); c.reading && c.err == nil {
		*p = append([]byte(nil), raw...)
	}
}

// Addr moves an address: empty for the zero value (a glueless server, an
// unattributed client), else its 4 or 16 bytes. Any other length is refused.
func Addr(c *Codec, a *netip.Addr) {
	var raw []byte
	if !c.reading && a.IsValid() {
		raw, _ = a.MarshalBinary()
	}
	raw = c.blob(raw)
	if !c.reading || c.err != nil || len(raw) == 0 {
		return
	}
	got, ok := netip.AddrFromSlice(raw)
	if !ok {
		c.Corrupt("%d-byte address", len(raw))
		return
	}
	*a = got
}

// Name moves a DNS name as an index into the file's name table. The writer
// numbers names in the order they are first moved, so a reader refuses an
// index that skips ahead of that order as well as one outside the table:
// with Done's check that none is left over, the table holds exactly the
// names the sections use, in the one order a writer would put them.
func Name(c *Codec, n *dns.Name) {
	if !c.reading {
		c.enc.uvarint(c.table.ref(*n))
		return
	}
	ref := c.readNum(math.MaxUint64, "name ref")
	if ref > c.used || ref >= uint64(len(c.table.names)) {
		c.Corrupt("name ref %d after %d of %d names", ref, c.used, len(c.table.names))
	} else if c.err == nil {
		*n = c.table.names[ref]
		c.used = max(c.used, ref+1)
	}
}

// Slice moves a count followed by that many elements, each by elem. Reading,
// an empty slice decodes as nil and a non-empty one is allocated at exactly
// its length, after the count check. That is the one nil-vs-empty convention
// of every decoded state, and it is the exporters' too wherever a slice can
// be empty in a warmed world (they append to nil), which is what lets
// TestSnapshotRoundTrip hold Decode(Encode(st)) to reflect.DeepEqual with st.
func Slice[T any](c *Codec, s *[]T, elem func(*Codec, *T)) {
	n := c.count(len(*s))
	if c.reading {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}
