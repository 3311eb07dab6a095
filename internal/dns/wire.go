package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
)

// Wire codec errors.
var (
	ErrTruncatedMessage = errors.New("dns: truncated message")
	ErrBadPointer       = errors.New("dns: bad compression pointer")
	ErrRDataTooLong     = errors.New("dns: rdata exceeds 65535 octets")
	ErrBadRData         = errors.New("dns: malformed rdata")
)

// header flag bit masks within the 16-bit flags word.
const (
	flagQR uint16 = 1 << 15
	flagAA uint16 = 1 << 10
	flagTC uint16 = 1 << 9
	flagRD uint16 = 1 << 8
	flagRA uint16 = 1 << 7
	flagZ  uint16 = 1 << 6
	flagAD uint16 = 1 << 5
	flagCD uint16 = 1 << 4
)

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
	clear(b.compress)
	return b
}

// release returns the builder to the pool. The caller must not touch b.buf
// afterwards; Encode copies the bytes out before releasing.
func (b *builder) release() {
	builderPool.Put(b)
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
	var flags uint16
	h := m.Header
	if h.QR {
		flags |= flagQR
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		flags |= flagAA
	}
	if h.TC {
		flags |= flagTC
	}
	if h.RD {
		flags |= flagRD
	}
	if h.RA {
		flags |= flagRA
	}
	if h.Z {
		flags |= flagZ
	}
	if h.AD {
		flags |= flagAD
	}
	if h.CD {
		flags |= flagCD
	}
	flags |= uint16(h.RCode & 0xF)

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
	for _, rr := range m.Answer {
		if err := encodeRR(b, rr); err != nil {
			return err
		}
	}
	for _, rr := range m.Authority {
		if err := encodeRR(b, rr); err != nil {
			return err
		}
	}
	for _, rr := range m.Additional {
		if err := encodeRR(b, rr); err != nil {
			return err
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
	if err := encodeRData(b, rr.Data); err != nil {
		return fmt.Errorf("encoding %s: %w", rr.Key(), err)
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

// encodeRData appends the payload in wire format. Name compression inside
// RDATA is used only for the types RFC 1035 permits (NS, CNAME, SOA, PTR,
// MX); DNSSEC-era types always embed uncompressed names (RFC 3597 §4).
func encodeRData(b *builder, d RData) error {
	switch v := d.(type) {
	case *AData:
		if !v.Addr.Is4() {
			return fmt.Errorf("%w: A record with non-IPv4 address %s", ErrBadRData, v.Addr)
		}
		a := v.Addr.As4()
		b.putBytes(a[:])
	case *AAAAData:
		if !v.Addr.Is6() || v.Addr.Is4() {
			return fmt.Errorf("%w: AAAA record with non-IPv6 address %s", ErrBadRData, v.Addr)
		}
		a := v.Addr.As16()
		b.putBytes(a[:])
	case *NSData:
		b.putName(v.Target, true)
	case *CNAMEData:
		b.putName(v.Target, true)
	case *PTRData:
		b.putName(v.Target, true)
	case *SOAData:
		b.putName(v.MName, true)
		b.putName(v.RName, true)
		b.putUint32(v.Serial)
		b.putUint32(v.Refresh)
		b.putUint32(v.Retry)
		b.putUint32(v.Expire)
		b.putUint32(v.MinTTL)
	case *MXData:
		b.putUint16(v.Preference)
		b.putName(v.Exchange, true)
	case *TXTData:
		if len(v.Strings) == 0 {
			b.putUint8(0)
			return nil
		}
		for _, s := range v.Strings {
			if len(s) > 255 {
				return fmt.Errorf("%w: TXT string exceeds 255 octets", ErrBadRData)
			}
			b.putUint8(uint8(len(s)))
			b.putString(s)
		}
	case *DNSKEYData:
		b.putUint16(v.Flags)
		b.putUint8(v.Protocol)
		b.putUint8(v.Algorithm)
		b.putBytes(v.PublicKey)
	case *DSData:
		b.putUint16(v.KeyTag)
		b.putUint8(v.Algorithm)
		b.putUint8(v.DigestType)
		b.putBytes(v.Digest)
	case *DLVData:
		b.putUint16(v.KeyTag)
		b.putUint8(v.Algorithm)
		b.putUint8(v.DigestType)
		b.putBytes(v.Digest)
	case *RRSIGData:
		b.putUint16(uint16(v.TypeCovered))
		b.putUint8(v.Algorithm)
		b.putUint8(v.Labels)
		b.putUint32(v.OriginalTTL)
		b.putUint32(v.Expiration)
		b.putUint32(v.Inception)
		b.putUint16(v.KeyTag)
		b.putName(v.SignerName, false)
		b.putBytes(v.Signature)
	case *NSECData:
		b.putName(v.NextName, false)
		encodeTypeBitmap(b, v.Types)
	case *NSEC3Data:
		b.putUint8(v.HashAlgorithm)
		b.putUint8(v.Flags)
		b.putUint16(v.Iterations)
		if len(v.Salt) > 255 {
			return fmt.Errorf("%w: NSEC3 salt exceeds 255 octets", ErrBadRData)
		}
		b.putUint8(uint8(len(v.Salt)))
		b.putBytes(v.Salt)
		if len(v.NextHash) > 255 {
			return fmt.Errorf("%w: NSEC3 hash exceeds 255 octets", ErrBadRData)
		}
		b.putUint8(uint8(len(v.NextHash)))
		b.putBytes(v.NextHash)
		encodeTypeBitmap(b, v.Types)
	case *RawData:
		b.putBytes(v.Data)
	default:
		return fmt.Errorf("%w: unsupported rdata %T", ErrBadRData, d)
	}
	return nil
}

// EncodeRData returns the uncompressed wire form of a payload, suitable as
// canonical RDATA for DNSSEC signing and digesting (RFC 4034 §6.2 forbids
// compression in canonical form).
func EncodeRData(d RData) ([]byte, error) {
	b := &builder{buf: make([]byte, 0, 64), noCompress: true}
	if err := encodeRData(b, d); err != nil {
		return nil, err
	}
	return b.buf, nil
}

// EncodeName returns the uncompressed wire form of a name.
func EncodeName(n Name) []byte {
	b := &builder{buf: make([]byte, 0, 32), noCompress: true}
	b.putName(n, false)
	return b.buf
}

// AppendRData appends the canonical wire encoding of an RDATA to dst and
// returns the extended slice; the allocation-free sibling of EncodeRData.
func AppendRData(dst []byte, d RData) ([]byte, error) {
	b := builder{buf: dst, noCompress: true}
	if err := encodeRData(&b, d); err != nil {
		return dst, err
	}
	return b.buf, nil
}

// AppendName appends the uncompressed wire form of a name to dst.
func AppendName(dst []byte, n Name) []byte {
	b := builder{buf: dst, noCompress: true}
	b.putName(n, false)
	return b.buf
}

// encodeTypeBitmap appends the RFC 4034 §4.1.2 window-block type bitmap.
func encodeTypeBitmap(b *builder, types []Type) {
	if len(types) == 0 {
		return
	}
	sorted := make([]Type, len(types))
	copy(sorted, types)
	SortTypes(sorted)

	var window = -1
	var bitmap [32]byte
	var maxOctet int
	flush := func() {
		if window < 0 {
			return
		}
		b.putUint8(uint8(window))
		b.putUint8(uint8(maxOctet + 1))
		b.putBytes(bitmap[:maxOctet+1])
	}
	for _, t := range sorted {
		w := int(t >> 8)
		if w != window {
			flush()
			window = w
			bitmap = [32]byte{}
			maxOctet = 0
		}
		pos := int(t & 0xFF)
		octet := pos / 8
		bitmap[octet] |= 0x80 >> (pos % 8)
		if octet > maxOctet {
			maxOctet = octet
		}
	}
	flush()
}

// parser consumes wire-format input; names are interned.
type parser struct {
	data []byte
	off  int
}

func (p *parser) remaining() int { return len(p.data) - p.off }

func (p *parser) uint8() (uint8, error) {
	if p.remaining() < 1 {
		return 0, ErrTruncatedMessage
	}
	v := p.data[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if p.remaining() < 2 {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(p.data[p.off:])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.remaining() < 4 {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(p.data[p.off:])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	if n < 0 || p.remaining() < n {
		return nil, ErrTruncatedMessage
	}
	v := p.data[p.off : p.off+n]
	p.off += n
	return v, nil
}

// name reads a possibly-compressed domain name starting at the current
// offset, following pointers with a hop limit. The fast path assembles the
// lowercased presentation text in a stack buffer and resolves it through the
// intern table, so decoding a hot name allocates nothing; a first-seen name
// is validated by MakeName.
func (p *parser) name() (Name, error) {
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
			return "", ErrTruncatedMessage
		}
		c := p.data[off]
		switch {
		case c == 0:
			if !jumped {
				p.off = off + 1
			}
			if n == 0 {
				return Root, nil
			}
			// Strip the trailing separator: the text is the labels joined
			// by dots, which MakeName validates as a whole, so a hostile
			// label that itself contains '.' is read as two labels.
			return internName(text[:n-1])
		case c&0xC0 == 0xC0:
			if off+1 >= len(p.data) {
				return "", ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(p.data[off:]) & 0x3FFF)
			if !jumped {
				p.off = off + 2
				jumped = true
			}
			hops++
			if hops > 32 || ptr >= off {
				return "", ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return "", fmt.Errorf("%w: label type %#x", ErrBadPointer, c&0xC0)
		default:
			l := int(c)
			if off+1+l > len(p.data) {
				return "", ErrTruncatedMessage
			}
			total += l + 1
			if total > maxNameLen {
				return "", ErrNameTooLong
			}
			for _, ch := range p.data[off+1 : off+1+l] {
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
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

// DecodeMessage parses a wire-format DNS message. OPT records found in the
// additional section are lifted into Message.EDNS.
func DecodeMessage(data []byte) (*Message, error) {
	p := &parser{data: data}
	m := &Message{}

	id, err := p.uint16()
	if err != nil {
		return nil, err
	}
	flags, err := p.uint16()
	if err != nil {
		return nil, err
	}
	m.Header = Header{
		ID:     id,
		QR:     flags&flagQR != 0,
		Opcode: Opcode(flags >> 11 & 0xF),
		AA:     flags&flagAA != 0,
		TC:     flags&flagTC != 0,
		RD:     flags&flagRD != 0,
		RA:     flags&flagRA != 0,
		Z:      flags&flagZ != 0,
		AD:     flags&flagAD != 0,
		CD:     flags&flagCD != 0,
		RCode:  RCode(flags & 0xF),
	}
	qd, err := p.uint16()
	if err != nil {
		return nil, err
	}
	an, err := p.uint16()
	if err != nil {
		return nil, err
	}
	ns, err := p.uint16()
	if err != nil {
		return nil, err
	}
	ar, err := p.uint16()
	if err != nil {
		return nil, err
	}

	if qd > 0 {
		// Pre-size from the header count, clamped by what the remaining
		// bytes could possibly hold (a question is at least 5 octets), so
		// a forged count cannot force a huge allocation.
		m.Question = make([]Question, 0, clampCount(int(qd), p.remaining()/5+1))
	}
	for i := 0; i < int(qd); i++ {
		qname, err := p.name()
		if err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		qtype, err := p.uint16()
		if err != nil {
			return nil, err
		}
		qclass, err := p.uint16()
		if err != nil {
			return nil, err
		}
		m.Question = append(m.Question, Question{Name: qname, Type: Type(qtype), Class: Class(qclass)})
	}

	decodeSection := func(count int, section string) ([]RR, error) {
		var rrs []RR
		if count > 0 {
			// An RR is at least 11 octets (root owner, fixed header, empty
			// RDATA); clamp like the question section.
			rrs = make([]RR, 0, clampCount(count, p.remaining()/11+1))
		}
		for i := 0; i < count; i++ {
			rr, isOPT, err := decodeRR(p, m)
			if err != nil {
				return nil, fmt.Errorf("%s record %d: %w", section, i, err)
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
	if m.Answer, err = decodeSection(int(an), "answer"); err != nil {
		return nil, err
	}
	if m.Authority, err = decodeSection(int(ns), "authority"); err != nil {
		return nil, err
	}
	if m.Additional, err = decodeSection(int(ar), "additional"); err != nil {
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
	qname, err := p.name()
	if err != nil {
		return Question{}, fmt.Errorf("question 0: %w", err)
	}
	qtype, err := p.uint16()
	if err != nil {
		return Question{}, err
	}
	qclass, err := p.uint16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: qname, Type: Type(qtype), Class: Class(qclass)}, nil
}

// decodeRR parses one resource record; OPT records are absorbed into
// m.EDNS and signaled via isOPT.
func decodeRR(p *parser, m *Message) (rr RR, isOPT bool, err error) {
	name, err := p.name()
	if err != nil {
		return RR{}, false, err
	}
	t, err := p.uint16()
	if err != nil {
		return RR{}, false, err
	}
	class, err := p.uint16()
	if err != nil {
		return RR{}, false, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return RR{}, false, err
	}
	rdlen, err := p.uint16()
	if err != nil {
		return RR{}, false, err
	}
	if Type(t) == TypeOPT {
		raw, err := p.bytes(int(rdlen))
		if err != nil {
			return RR{}, false, err
		}
		e := &EDNS{UDPSize: class, DO: ttl&ednsFlagDO != 0}
		// Walk the options list for the padding option.
		for off := 0; off+4 <= len(raw); {
			code := binary.BigEndian.Uint16(raw[off:])
			olen := int(binary.BigEndian.Uint16(raw[off+2:]))
			if off+4+olen > len(raw) {
				return RR{}, false, fmt.Errorf("%w: OPT option overruns rdata", ErrBadRData)
			}
			if code == ednsOptionPadding {
				e.Padding = olen
			}
			off += 4 + olen
		}
		m.EDNS = e
		return RR{}, true, nil
	}
	end := p.off + int(rdlen)
	if end > len(p.data) {
		return RR{}, false, ErrTruncatedMessage
	}
	data, err := decodeRData(p, Type(t), end)
	if err != nil {
		return RR{}, false, err
	}
	if p.off != end {
		return RR{}, false, fmt.Errorf("%w: %d trailing rdata octets in %s record",
			ErrBadRData, end-p.off, Type(t))
	}
	return RR{Name: name, Type: Type(t), Class: Class(class), TTL: ttl, Data: data}, false, nil
}

func decodeRData(p *parser, t Type, end int) (RData, error) {
	switch t {
	case TypeA:
		raw, err := p.bytes(4)
		if err != nil {
			return nil, err
		}
		return &AData{Addr: netip.AddrFrom4([4]byte(raw))}, nil
	case TypeAAAA:
		raw, err := p.bytes(16)
		if err != nil {
			return nil, err
		}
		return &AAAAData{Addr: netip.AddrFrom16([16]byte(raw))}, nil
	case TypeNS:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &NSData{Target: n}, nil
	case TypeCNAME:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &CNAMEData{Target: n}, nil
	case TypePTR:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &PTRData{Target: n}, nil
	case TypeSOA:
		return decodeSOA(p)
	case TypeMX:
		pref, err := p.uint16()
		if err != nil {
			return nil, err
		}
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &MXData{Preference: pref, Exchange: n}, nil
	case TypeTXT:
		return decodeTXT(p, end)
	case TypeDNSKEY:
		return decodeDNSKEY(p, end)
	case TypeDS:
		f, err := decodeDSFields(p, end)
		if err != nil {
			return nil, err
		}
		return (*DSData)(f), nil
	case TypeDLV:
		f, err := decodeDSFields(p, end)
		if err != nil {
			return nil, err
		}
		return (*DLVData)(f), nil
	case TypeRRSIG:
		return decodeRRSIG(p, end)
	case TypeNSEC:
		return decodeNSEC(p, end)
	case TypeNSEC3:
		return decodeNSEC3(p, end)
	default:
		raw, err := p.bytes(end - p.off)
		if err != nil {
			return nil, err
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		return &RawData{T: t, Data: cp}, nil
	}
}

func decodeSOA(p *parser) (*SOAData, error) {
	mname, err := p.name()
	if err != nil {
		return nil, err
	}
	rname, err := p.name()
	if err != nil {
		return nil, err
	}
	var vals [5]uint32
	for i := range vals {
		if vals[i], err = p.uint32(); err != nil {
			return nil, err
		}
	}
	return &SOAData{
		MName: mname, RName: rname,
		Serial: vals[0], Refresh: vals[1], Retry: vals[2], Expire: vals[3], MinTTL: vals[4],
	}, nil
}

func decodeTXT(p *parser, end int) (*TXTData, error) {
	var out TXTData
	for p.off < end {
		n, err := p.uint8()
		if err != nil {
			return nil, err
		}
		s, err := p.bytes(int(n))
		if err != nil {
			return nil, err
		}
		out.Strings = append(out.Strings, string(s))
	}
	return &out, nil
}

func decodeDNSKEY(p *parser, end int) (*DNSKEYData, error) {
	flags, err := p.uint16()
	if err != nil {
		return nil, err
	}
	proto, err := p.uint8()
	if err != nil {
		return nil, err
	}
	alg, err := p.uint8()
	if err != nil {
		return nil, err
	}
	key, err := p.bytes(end - p.off)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(key))
	copy(cp, key)
	return &DNSKEYData{Flags: flags, Protocol: proto, Algorithm: alg, PublicKey: cp}, nil
}

// dsFields is the shared DS/DLV wire layout.
type dsFields struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

func decodeDSFields(p *parser, end int) (*dsFields, error) {
	tag, err := p.uint16()
	if err != nil {
		return nil, err
	}
	alg, err := p.uint8()
	if err != nil {
		return nil, err
	}
	dt, err := p.uint8()
	if err != nil {
		return nil, err
	}
	dig, err := p.bytes(end - p.off)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(dig))
	copy(cp, dig)
	return &dsFields{KeyTag: tag, Algorithm: alg, DigestType: dt, Digest: cp}, nil
}

func decodeRRSIG(p *parser, end int) (*RRSIGData, error) {
	covered, err := p.uint16()
	if err != nil {
		return nil, err
	}
	alg, err := p.uint8()
	if err != nil {
		return nil, err
	}
	labels, err := p.uint8()
	if err != nil {
		return nil, err
	}
	origTTL, err := p.uint32()
	if err != nil {
		return nil, err
	}
	exp, err := p.uint32()
	if err != nil {
		return nil, err
	}
	inc, err := p.uint32()
	if err != nil {
		return nil, err
	}
	tag, err := p.uint16()
	if err != nil {
		return nil, err
	}
	signer, err := p.name()
	if err != nil {
		return nil, err
	}
	sig, err := p.bytes(end - p.off)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(sig))
	copy(cp, sig)
	return &RRSIGData{
		TypeCovered: Type(covered), Algorithm: alg, Labels: labels,
		OriginalTTL: origTTL, Expiration: exp, Inception: inc,
		KeyTag: tag, SignerName: signer, Signature: cp,
	}, nil
}

func decodeNSEC(p *parser, end int) (*NSECData, error) {
	next, err := p.name()
	if err != nil {
		return nil, err
	}
	types, err := decodeTypeBitmap(p, end)
	if err != nil {
		return nil, err
	}
	return &NSECData{NextName: next, Types: types}, nil
}

func decodeNSEC3(p *parser, end int) (*NSEC3Data, error) {
	alg, err := p.uint8()
	if err != nil {
		return nil, err
	}
	flags, err := p.uint8()
	if err != nil {
		return nil, err
	}
	iter, err := p.uint16()
	if err != nil {
		return nil, err
	}
	saltLen, err := p.uint8()
	if err != nil {
		return nil, err
	}
	salt, err := p.bytes(int(saltLen))
	if err != nil {
		return nil, err
	}
	hashLen, err := p.uint8()
	if err != nil {
		return nil, err
	}
	hash, err := p.bytes(int(hashLen))
	if err != nil {
		return nil, err
	}
	types, err := decodeTypeBitmap(p, end)
	if err != nil {
		return nil, err
	}
	saltCp := make([]byte, len(salt))
	copy(saltCp, salt)
	hashCp := make([]byte, len(hash))
	copy(hashCp, hash)
	return &NSEC3Data{
		HashAlgorithm: alg, Flags: flags, Iterations: iter,
		Salt: saltCp, NextHash: hashCp, Types: types,
	}, nil
}

func decodeTypeBitmap(p *parser, end int) ([]Type, error) {
	var types []Type
	for p.off < end {
		window, err := p.uint8()
		if err != nil {
			return nil, err
		}
		length, err := p.uint8()
		if err != nil {
			return nil, err
		}
		if length == 0 || length > 32 {
			return nil, fmt.Errorf("%w: bitmap window length %d", ErrBadRData, length)
		}
		octets, err := p.bytes(int(length))
		if err != nil {
			return nil, err
		}
		for i, octet := range octets {
			for bit := 0; bit < 8; bit++ {
				if octet&(0x80>>bit) != 0 {
					types = append(types, Type(uint16(window)<<8|uint16(i*8+bit)))
				}
			}
		}
	}
	return types, nil
}
