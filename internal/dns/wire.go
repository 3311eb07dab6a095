package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Wire codec errors.
var (
	ErrTruncatedMessage = errors.New("dns: truncated message")
	ErrBadPointer       = errors.New("dns: bad compression pointer")
	ErrRDataTooLong     = errors.New("dns: rdata exceeds 65535 octets")
	ErrBadRData         = errors.New("dns: malformed rdata")
)

// headerFlag is one single-bit header flag and its mask in the 16-bit flags
// word.
type headerFlag struct {
	bit  *bool
	mask uint16
}

// flags lists h's single-bit flags (RFC 1035 §4.1.1; AD and CD from RFC
// 4035 §3.2); the encoder and the decoder both walk it.
func (h *Header) flags() [8]headerFlag {
	return [8]headerFlag{
		{&h.QR, 1 << 15},
		{&h.AA, 1 << 10},
		{&h.TC, 1 << 9},
		{&h.RD, 1 << 8},
		{&h.RA, 1 << 7},
		{&h.Z, 1 << 6},
		{&h.AD, 1 << 5},
		{&h.CD, 1 << 4},
	}
}

// ednsFlagDO is the DO bit inside the OPT TTL field.
const ednsFlagDO uint32 = 1 << 15

// builder accumulates wire-format output with RFC 1035 name compression.
// In measure mode nothing is written: only vlen advances, so WireSize can
// compute exact encoded sizes (compression included) without building bytes.
type builder struct {
	buf        []byte
	compress   map[Name]int
	noCompress bool
	measure    bool
	vlen       int
	// err is the first RDATA field that could not be encoded.
	err error
}

// builderPool recycles builders across Encode calls; every simulated
// exchange encodes (and re-encodes) messages, so the buffer and compression
// map are hot allocations.
var builderPool = sync.Pool{
	New: func() any {
		return &builder{buf: make([]byte, 0, 512), compress: make(map[Name]int)}
	},
}

func newBuilder() *builder {
	b := builderPool.Get().(*builder)
	b.buf = b.buf[:0]
	b.noCompress = false
	b.measure = false
	b.vlen = 0
	b.err = nil
	clear(b.compress)
	return b
}

// release returns the builder to the pool. The caller must not touch b.buf
// afterwards; Encode copies the bytes out before releasing.
func (b *builder) release() {
	builderPool.Put(b)
}

// fail records the first encoding failure.
func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// len returns the current output offset in both modes; compression targets
// depend on it, so measure-mode sizes match real encodings exactly.
func (b *builder) len() int {
	if b.measure {
		return b.vlen
	}
	return len(b.buf)
}

func (b *builder) putUint8(v uint8) {
	if b.measure {
		b.vlen++
		return
	}
	b.buf = append(b.buf, v)
}

func (b *builder) putUint16(v uint16) {
	if b.measure {
		b.vlen += 2
		return
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, v)
}

func (b *builder) putUint32(v uint32) {
	if b.measure {
		b.vlen += 4
		return
	}
	b.buf = binary.BigEndian.AppendUint32(b.buf, v)
}

func (b *builder) putBytes(p []byte) {
	if b.measure {
		b.vlen += len(p)
		return
	}
	b.buf = append(b.buf, p...)
}

// putString appends the raw bytes of s without a []byte conversion.
func (b *builder) putString(s string) {
	if b.measure {
		b.vlen += len(s)
		return
	}
	b.buf = append(b.buf, s...)
}

// putZeros appends n zero octets (RFC 7830 padding) without allocating a
// scratch slice.
func (b *builder) putZeros(n int) {
	if b.measure {
		b.vlen += n
		return
	}
	for ; n >= len(zeroOctets); n -= len(zeroOctets) {
		b.buf = append(b.buf, zeroOctets[:]...)
	}
	b.buf = append(b.buf, zeroOctets[:n]...)
}

var zeroOctets [64]byte

// putName appends a domain name, using a compression pointer to an earlier
// occurrence when allowed. Compression targets must be at offsets
// representable in 14 bits.
func (b *builder) putName(n Name, allowCompress bool) {
	if b.noCompress {
		allowCompress = false
	}
	for !n.IsRoot() {
		if allowCompress {
			if off, ok := b.compress[n]; ok {
				b.putUint16(0xC000 | uint16(off))
				return
			}
		}
		if off := b.len(); b.compress != nil && off < 0x4000 {
			b.compress[n] = off
		}
		label := n.FirstLabel()
		b.putUint8(uint8(len(label)))
		b.putString(label)
		n = n.Parent()
	}
	b.putUint8(0)
}

// Encode serializes the message to RFC 1035 wire format. An OPT record is
// appended to the additional section when m.EDNS is non-nil.
func (m *Message) Encode() ([]byte, error) {
	b := newBuilder()
	defer b.release()
	if err := m.encodeTo(b); err != nil {
		return nil, err
	}
	out := make([]byte, len(b.buf))
	copy(out, b.buf)
	return out, nil
}

// AppendEncode appends the wire encoding of m to dst and returns the
// extended slice. Exchange hot paths use it with pooled buffers so encoding
// a message costs no allocation beyond dst's own growth.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	b := newBuilder()
	defer b.release()
	if err := m.encodeTo(b); err != nil {
		return nil, err
	}
	return append(dst, b.buf...), nil
}

// encodeTo writes the full message into b.
func (m *Message) encodeTo(b *builder) error {
	h := m.Header
	flags := uint16(h.Opcode&0xF)<<11 | uint16(h.RCode&0xF)
	for _, f := range h.flags() {
		if *f.bit {
			flags |= f.mask
		}
	}
	arcount := len(m.Additional)
	if m.EDNS != nil {
		arcount++
	}
	b.putUint16(h.ID)
	b.putUint16(flags)
	b.putUint16(uint16(len(m.Question)))
	b.putUint16(uint16(len(m.Answer)))
	b.putUint16(uint16(len(m.Authority)))
	b.putUint16(uint16(arcount))

	for _, q := range m.Question {
		b.putName(q.Name, true)
		b.putUint16(uint16(q.Type))
		b.putUint16(uint16(q.Class))
	}
	for _, section := range [...][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := encodeRR(b, rr); err != nil {
				return err
			}
		}
	}
	if m.EDNS != nil {
		encodeOPT(b, m.EDNS)
	}
	return nil
}

// WireSize returns the encoded size of the message in octets without
// building the bytes: the pooled builder runs in measure mode, advancing
// only an offset (compression pointers included), so the hot PadToBlock
// path allocates nothing.
func (m *Message) WireSize() (int, error) {
	b := newBuilder()
	defer b.release()
	b.measure = true
	if err := m.encodeTo(b); err != nil {
		return 0, err
	}
	return b.vlen, nil
}

func encodeRR(b *builder, rr RR) error {
	b.putName(rr.Name, true)
	b.putUint16(uint16(rr.Type))
	b.putUint16(uint16(rr.Class))
	b.putUint32(rr.TTL)
	lenOff := b.len()
	b.putUint16(0) // RDLENGTH placeholder
	rdata(rdataCodec{b: b}, rr.Data)
	if b.err != nil {
		return fmt.Errorf("encoding %s: %w", rr.Key(), b.err)
	}
	rdlen := b.len() - lenOff - 2
	if rdlen > 0xFFFF {
		return fmt.Errorf("%w: %s", ErrRDataTooLong, rr.Key())
	}
	if !b.measure {
		binary.BigEndian.PutUint16(b.buf[lenOff:], uint16(rdlen))
	}
	return nil
}

// ednsOptionPadding is the RFC 7830 option code.
const ednsOptionPadding = 12

func encodeOPT(b *builder, e *EDNS) {
	b.putUint8(0) // root owner name
	b.putUint16(uint16(TypeOPT))
	b.putUint16(e.UDPSize)
	var ttl uint32
	if e.DO {
		ttl |= ednsFlagDO
	}
	b.putUint32(ttl)
	if e.Padding <= 0 {
		b.putUint16(0) // empty RDATA
		return
	}
	b.putUint16(uint16(4 + e.Padding))
	b.putUint16(ednsOptionPadding)
	b.putUint16(uint16(e.Padding))
	b.putZeros(e.Padding)
}

// EncodeName returns the uncompressed wire form of a name.
func EncodeName(n Name) []byte {
	return AppendName(make([]byte, 0, 32), n)
}

// AppendName appends the uncompressed wire form of a name to dst.
func AppendName(dst []byte, n Name) []byte {
	b := builder{buf: dst, noCompress: true}
	b.putName(n, false)
	return b.buf
}

// parser consumes wire-format input; names are interned. The first failure
// sticks: every later read yields a zero value, and callers check err once
// per question or record.
type parser struct {
	data []byte
	off  int
	err  error
}

func (p *parser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *parser) remaining() int { return len(p.data) - p.off }

// more reports whether a field that runs to the end of the data has octets
// left to read.
func (p *parser) more() bool { return p.err == nil && p.off < len(p.data) }

// bytes reads n octets, a view into the message; nil after a failure.
func (p *parser) bytes(n int) []byte {
	if p.err != nil || n > p.remaining() {
		p.fail(ErrTruncatedMessage)
		return nil
	}
	v := p.data[p.off : p.off+n]
	p.off += n
	return v
}

func (p *parser) uint8() uint8 {
	if b := p.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *parser) uint16() uint16 {
	if b := p.bytes(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (p *parser) uint32() uint32 {
	if b := p.bytes(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// name reads a possibly-compressed domain name starting at the current
// offset, following pointers with a hop limit. The fast path assembles the
// lowercased presentation text in a stack buffer and resolves it through the
// intern table, so decoding a hot name allocates nothing; a first-seen name
// is validated and built there.
//
// Cutting the message at a record's end loses no name a pointer in its
// RDATA could reach. Pointers point strictly backwards, so labels that run
// on past the cut would cross the first pointer's own octets: as label text
// they are not name characters, and as a length octet they are that pointer
// again, which loops until the hop limit.
func (p *parser) name() Name {
	if p.err != nil {
		return ""
	}
	// text holds the lowercased dotted form including the trailing dot;
	// its length equals the wire-format name length, bounded by maxNameLen.
	var text [maxNameLen]byte
	n := 0
	off := p.off
	jumped := false
	hops := 0
	total := 0
	for {
		if off >= len(p.data) {
			p.fail(ErrTruncatedMessage)
			return ""
		}
		c := p.data[off]
		switch {
		case c == 0:
			if !jumped {
				p.off = off + 1
			}
			if n == 0 {
				return Root
			}
			// Strip the trailing separator: the text is the labels joined
			// by dots, which internName validates as a whole; no label
			// holds a '.' of its own (refused below).
			name, err := internName(text[:n-1])
			p.fail(err)
			return name
		case c&0xC0 == 0xC0:
			if off+1 >= len(p.data) {
				p.fail(ErrTruncatedMessage)
				return ""
			}
			ptr := int(binary.BigEndian.Uint16(p.data[off:]) & 0x3FFF)
			if !jumped {
				p.off = off + 2
				jumped = true
			}
			hops++
			if hops > 32 || ptr >= off {
				p.fail(ErrBadPointer)
				return ""
			}
			off = ptr
		case c&0xC0 != 0:
			p.fail(fmt.Errorf("%w: label type %#x", ErrBadPointer, c&0xC0))
			return ""
		default:
			l := int(c)
			if off+1+l > len(p.data) {
				p.fail(ErrTruncatedMessage)
				return ""
			}
			total += l + 1
			if total > maxNameLen {
				p.fail(ErrNameTooLong)
				return ""
			}
			for _, ch := range p.data[off+1 : off+1+l] {
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				} else if ch == '.' {
					// Joined into the text, it would split the label: 01 2e
					// 00 would read as the root and 03 61 2e 62 00 as a.b.
					p.fail(fmt.Errorf("%w: '.' inside a wire label", ErrBadLabelChar))
					return ""
				}
				text[n] = ch
				n++
			}
			text[n] = '.'
			n++
			off += 1 + l
		}
	}
}

// question reads one question entry.
func (p *parser) question() Question {
	name := p.name()
	t := Type(p.uint16())
	return Question{Name: name, Type: t, Class: Class(p.uint16())}
}

// DecodeMessage parses a wire-format DNS message. OPT records found in the
// additional section are lifted into Message.EDNS.
func DecodeMessage(data []byte) (*Message, error) {
	p := &parser{data: data}
	m := &Message{}
	h := &m.Header
	h.ID = p.uint16()
	flags := p.uint16()
	qd, an, ns, ar := int(p.uint16()), int(p.uint16()), int(p.uint16()), int(p.uint16())
	if p.err != nil {
		return nil, p.err
	}
	h.Opcode = Opcode(flags >> 11 & 0xF)
	h.RCode = RCode(flags & 0xF)
	for _, f := range h.flags() {
		*f.bit = flags&f.mask != 0
	}

	if qd > 0 {
		// Pre-size from the header count, clamped by what the remaining
		// bytes could possibly hold (a question is at least 5 octets), so
		// a forged count cannot force a huge allocation.
		m.Question = make([]Question, 0, clampCount(qd, p.remaining()/5+1))
	}
	for i := 0; i < qd; i++ {
		q := p.question()
		if p.err != nil {
			return nil, fmt.Errorf("question %d: %w", i, p.err)
		}
		m.Question = append(m.Question, q)
	}

	decodeSection := func(count int, section string) ([]RR, error) {
		var rrs []RR
		if count > 0 {
			// An RR is at least 11 octets (root owner, fixed header, empty
			// RDATA); clamp like the question section.
			rrs = make([]RR, 0, clampCount(count, p.remaining()/11+1))
		}
		for i := 0; i < count; i++ {
			rr, isOPT := decodeRR(p, m)
			if p.err != nil {
				return nil, fmt.Errorf("%s record %d: %w", section, i, p.err)
			}
			if !isOPT {
				rrs = append(rrs, rr)
			}
		}
		if len(rrs) == 0 {
			// Keep nil sections nil, an OPT-only additional section too.
			return nil, nil
		}
		return rrs, nil
	}
	var err error
	if m.Answer, err = decodeSection(an, "answer"); err != nil {
		return nil, err
	}
	if m.Authority, err = decodeSection(ns, "authority"); err != nil {
		return nil, err
	}
	if m.Additional, err = decodeSection(ar, "additional"); err != nil {
		return nil, err
	}
	return m, nil
}

// clampCount bounds a header-declared entry count by a plausibility limit.
func clampCount(count, limit int) int {
	if count > limit {
		return limit
	}
	return count
}

// DecodeQuestion parses only the header and first question of a wire
// message — everything exchange routing and capture need — without
// materializing resource records. A message without questions yields the
// zero Question and no error; truncated or malformed question bytes fail
// exactly as DecodeMessage would.
func DecodeQuestion(data []byte) (Question, error) {
	if len(data) < 12 {
		return Question{}, ErrTruncatedMessage
	}
	if binary.BigEndian.Uint16(data[4:6]) == 0 {
		return Question{}, nil
	}
	p := &parser{data: data, off: 12}
	if q := p.question(); p.err == nil {
		return q, nil
	}
	return Question{}, fmt.Errorf("question 0: %w", p.err)
}

// errRDataOverrun is a field running past the end of its record's RDATA.
var errRDataOverrun = fmt.Errorf("%w: a field overruns RDLENGTH", ErrBadRData)

// decodeRR parses one resource record; OPT records are absorbed into
// m.EDNS and signaled via isOPT. The RDATA is read from the message cut at
// the record's end, so no field can read past RDLENGTH: running out of data
// there is errRDataOverrun, not a truncated message.
func decodeRR(p *parser, m *Message) (rr RR, isOPT bool) {
	name := p.name()
	t := Type(p.uint16())
	class := p.uint16()
	ttl := p.uint32()
	rdlen := int(p.uint16())
	if rdlen > p.remaining() {
		p.fail(ErrTruncatedMessage)
	}
	if p.err != nil {
		return RR{}, false
	}
	msg, end := p.data, p.off+rdlen
	p.data = msg[:end]
	var data RData
	if t == TypeOPT {
		e := &EDNS{UDPSize: class, DO: ttl&ednsFlagDO != 0}
		// Walk the options for the padding option; fewer than four
		// octets after the last option are ignored.
		for p.err == nil && p.remaining() >= 4 {
			code, olen := p.uint16(), p.uint16()
			p.bytes(int(olen))
			if code == ednsOptionPadding {
				e.Padding = int(olen)
			}
		}
		m.EDNS, p.off = e, end
	} else {
		data = decodeRData(p, t)
		if p.err == nil && p.off != end {
			p.fail(fmt.Errorf("%w: %d trailing rdata octets", ErrBadRData, end-p.off))
		}
	}
	p.data = msg
	if p.err == ErrTruncatedMessage {
		// The data ran out at the cut: a field overran RDLENGTH.
		p.err = errRDataOverrun
	}
	if p.err != nil {
		p.err = fmt.Errorf("%s record with RDLENGTH %d: %w", t, rdlen, p.err)
		return RR{}, false
	}
	return RR{Name: name, Type: t, Class: Class(class), TTL: ttl, Data: data}, t == TypeOPT
}
