package dns

import (
	"fmt"
	"net/netip"
)

// rdataCodec moves one payload's fields in one direction: appending to b
// when b is set, reading from p otherwise. rdata lists each type's fields
// once, in wire order, and runs in either direction, so the encoder and the
// decoder cannot drift apart.
//
// An encoding failure is kept on the builder and a decoding one on the
// parser, never here: a codec that held an error would have to be passed
// by pointer, and the stack builder AppendRData hands it would escape.
type rdataCodec struct {
	b *builder
	p *parser
}

// rdata lists each payload type's fields in wire order: RFC 1035 §3.3 for
// the classic types, RFC 4034 for the DNSSEC ones (DLV is DS's layout, RFC
// 4431) and RFC 5155 §3.2 for NSEC3. Names in NS, CNAME, PTR, SOA and MX
// may be compressed; the DNSSEC types never compress (RFC 3597 §4).
func rdata(c rdataCodec, d RData) {
	if v, ok := d.(*DLVData); ok {
		d = (*DSData)(v)
	}
	switch v := d.(type) {
	case *AData:
		c.addr(&v.Addr, TypeA)
	case *AAAAData:
		c.addr(&v.Addr, TypeAAAA)
	case *NSData:
		c.name(&v.Target, true)
	case *CNAMEData:
		c.name(&v.Target, true)
	case *PTRData:
		c.name(&v.Target, true)
	case *SOAData:
		c.name(&v.MName, true)
		c.name(&v.RName, true)
		c.u32(&v.Serial)
		c.u32(&v.Refresh)
		c.u32(&v.Retry)
		c.u32(&v.Expire)
		c.u32(&v.MinTTL)
	case *MXData:
		c.u16(&v.Preference)
		c.name(&v.Exchange, true)
	case *TXTData:
		c.strings(&v.Strings)
	case *DNSKEYData:
		c.u16(&v.Flags)
		c.u8(&v.Protocol)
		c.u8(&v.Algorithm)
		c.rest(&v.PublicKey)
	case *DSData:
		c.u16(&v.KeyTag)
		c.u8(&v.Algorithm)
		c.u8(&v.DigestType)
		c.rest(&v.Digest)
	case *RRSIGData:
		c.u16((*uint16)(&v.TypeCovered))
		c.u8(&v.Algorithm)
		c.u8(&v.Labels)
		c.u32(&v.OriginalTTL)
		c.u32(&v.Expiration)
		c.u32(&v.Inception)
		c.u16(&v.KeyTag)
		c.name(&v.SignerName, false)
		c.rest(&v.Signature)
	case *NSECData:
		c.name(&v.NextName, false)
		c.types(&v.Types)
	case *NSEC3Data:
		c.u8(&v.HashAlgorithm)
		c.u8(&v.Flags)
		c.u16(&v.Iterations)
		c.octets(&v.Salt, "NSEC3 salt")
		c.octets(&v.NextHash, "NSEC3 hash")
		c.types(&v.Types)
	case *RawData:
		c.rest(&v.Data)
	default:
		c.fail(fmt.Errorf("%w: unsupported rdata %T", ErrBadRData, d))
	}
}

// newRData allocates the empty payload rdata fills for a record type: the
// RFC 3597 RawData for a type without a layout of its own.
func newRData(t Type) RData {
	switch t {
	case TypeA:
		return &AData{}
	case TypeAAAA:
		return &AAAAData{}
	case TypeNS:
		return &NSData{}
	case TypeCNAME:
		return &CNAMEData{}
	case TypePTR:
		return &PTRData{}
	case TypeSOA:
		return &SOAData{}
	case TypeMX:
		return &MXData{}
	case TypeTXT:
		return &TXTData{}
	case TypeDNSKEY:
		return &DNSKEYData{}
	case TypeDS:
		return &DSData{}
	case TypeDLV:
		return &DLVData{}
	case TypeRRSIG:
		return &RRSIGData{}
	case TypeNSEC:
		return &NSECData{}
	case TypeNSEC3:
		return &NSEC3Data{}
	}
	return &RawData{T: t}
}

// decodeRData reads a payload of type t from p, which holds exactly its
// RDATA; a failure is left on p.
func decodeRData(p *parser, t Type) RData {
	d := newRData(t)
	rdata(rdataCodec{p: p}, d)
	return d
}

func (c rdataCodec) fail(err error) {
	if c.b != nil {
		c.b.fail(err)
	} else {
		c.p.fail(err)
	}
}

func (c rdataCodec) u8(v *uint8) {
	if c.b != nil {
		c.b.putUint8(*v)
	} else {
		*v = c.p.uint8()
	}
}

func (c rdataCodec) u16(v *uint16) {
	if c.b != nil {
		c.b.putUint16(*v)
	} else {
		*v = c.p.uint16()
	}
}

func (c rdataCodec) u32(v *uint32) {
	if c.b != nil {
		c.b.putUint32(*v)
	} else {
		*v = c.p.uint32()
	}
}

func (c rdataCodec) name(n *Name, compress bool) {
	if c.b != nil {
		c.b.putName(*n, compress)
	} else {
		*n = c.p.name()
	}
}

// addr moves the address of an A (4 octets) or AAAA (16 octets) record.
// An address of the other family is not encodable.
func (c rdataCodec) addr(a *netip.Addr, t Type) {
	v4 := t == TypeA
	if c.b == nil {
		n := 16
		if v4 {
			n = 4
		}
		if raw := c.p.bytes(n); raw != nil {
			*a, _ = netip.AddrFromSlice(raw)
		}
		return
	}
	switch {
	case v4 && a.Is4():
		x := a.As4()
		c.b.putBytes(x[:])
	case !v4 && a.Is6():
		x := a.As16()
		c.b.putBytes(x[:])
	default:
		c.b.fail(fmt.Errorf("%w: %s record with address %s", ErrBadRData, t, *a))
	}
}

// rest moves a byte field that runs to the end of the RDATA. Decoding
// copies it out of the message, so a payload never aliases the wire.
func (c rdataCodec) rest(v *[]byte) {
	if c.b != nil {
		c.b.putBytes(*v)
		return
	}
	raw := c.p.bytes(c.p.remaining())
	*v = make([]byte, len(raw))
	copy(*v, raw)
}

// octets moves a byte field behind a one-octet length, copied like rest.
func (c rdataCodec) octets(v *[]byte, what string) {
	if c.b != nil {
		if len(*v) > 255 {
			c.b.fail(fmt.Errorf("%w: %s exceeds 255 octets", ErrBadRData, what))
			return
		}
		c.b.putUint8(uint8(len(*v)))
		c.b.putBytes(*v)
		return
	}
	raw := c.p.bytes(int(c.p.uint8()))
	*v = make([]byte, len(raw))
	copy(*v, raw)
}

// strings moves TXT character strings, which run to the end of the RDATA.
// No strings encode as one empty string: RDATA cannot be empty.
func (c rdataCodec) strings(v *[]string) {
	if c.b == nil {
		for c.p.more() {
			*v = append(*v, string(c.p.bytes(int(c.p.uint8()))))
		}
		return
	}
	if len(*v) == 0 {
		c.b.putUint8(0)
	}
	for _, s := range *v {
		if len(s) > 255 {
			c.b.fail(fmt.Errorf("%w: TXT string exceeds 255 octets", ErrBadRData))
			return
		}
		c.b.putUint8(uint8(len(s)))
		c.b.putString(s)
	}
}

// types moves an NSEC/NSEC3 type bitmap, which runs to the end of the RDATA.
func (c rdataCodec) types(v *[]Type) {
	if c.b != nil {
		encodeTypeBitmap(c.b, *v)
	} else {
		*v = decodeTypeBitmap(c.p)
	}
}

// EncodeRData returns the uncompressed wire form of a payload, suitable as
// canonical RDATA for DNSSEC signing and digesting (RFC 4034 §6.2 forbids
// compression in canonical form).
func EncodeRData(d RData) ([]byte, error) {
	out, err := AppendRData(make([]byte, 0, 64), d)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendRData appends the canonical wire encoding of an RDATA to dst and
// returns the extended slice; the allocation-free sibling of EncodeRData.
func AppendRData(dst []byte, d RData) ([]byte, error) {
	b := builder{buf: dst, noCompress: true}
	rdata(rdataCodec{b: &b}, d)
	if b.err != nil {
		return dst, b.err
	}
	return b.buf, nil
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

// decodeTypeBitmap reads window blocks to the end of p's RDATA.
func decodeTypeBitmap(p *parser) []Type {
	var types []Type
	for p.more() {
		window, length := p.uint8(), p.uint8()
		if p.err == nil && (length == 0 || length > 32) {
			p.fail(fmt.Errorf("%w: bitmap window length %d", ErrBadRData, length))
		}
		for i, octet := range p.bytes(int(length)) {
			for bit := 0; bit < 8; bit++ {
				if octet&(0x80>>bit) != 0 {
					types = append(types, Type(uint16(window)<<8|uint16(i*8+bit)))
				}
			}
		}
	}
	return types
}
