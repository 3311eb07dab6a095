package dns

import (
	"errors"
	"net/netip"
	"strings"
)

// naiveDecode is a second wire decoder, written apart from DecodeMessage in
// the textbook shape: functions over the message bytes that return the next
// offset, labels gathered into a slice and joined, every field copied out.
// It has no parser type, no intern table and no pre-sized sections. The
// differential fuzz targets require DecodeMessage to agree with it on every
// input, so a disagreement is a bug in one of the two. The rules it holds
// DecodeMessage to:
//   - a name is at most 255 octets of labels; a compression pointer must
//     point strictly backwards, and at most 32 are followed; no label holds
//     a '.', and the labels joined by dots must be a valid Name (MakeName);
//   - an RR's RDATA must be consumed exactly;
//   - an OPT record in any section becomes Message.EDNS (the last one
//     wins), and a section left without records is nil;
//   - byte fields are copies, an empty one a non-nil empty slice.
func naiveDecode(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, errNaiveShort
	}
	flags := naiveU16(msg, 2)
	bit := func(b uint) bool { return flags&(1<<b) != 0 }
	m := &Message{Header: Header{
		ID: naiveU16(msg, 0), QR: bit(15), Opcode: Opcode(flags >> 11 & 0xF),
		AA: bit(10), TC: bit(9), RD: bit(8), RA: bit(7), Z: bit(6), AD: bit(5), CD: bit(4),
		RCode: RCode(flags & 0xF),
	}}
	off := 12
	for i := 0; i < int(naiveU16(msg, 4)); i++ {
		name, next, err := naiveName(msg, off)
		if err != nil {
			return nil, err
		}
		if next+4 > len(msg) {
			return nil, errNaiveShort
		}
		m.Question = append(m.Question, Question{Name: name, Type: Type(naiveU16(msg, next)), Class: Class(naiveU16(msg, next+2))})
		off = next + 4
	}
	sections := []*[]RR{&m.Answer, &m.Authority, &m.Additional}
	for s, count := range []uint16{naiveU16(msg, 6), naiveU16(msg, 8), naiveU16(msg, 10)} {
		for i := 0; i < int(count); i++ {
			owner, next, err := naiveName(msg, off)
			if err != nil {
				return nil, err
			}
			if next+10 > len(msg) {
				return nil, errNaiveShort
			}
			typ, class := Type(naiveU16(msg, next)), naiveU16(msg, next+2)
			ttl := uint32(naiveU16(msg, next+4))<<16 | uint32(naiveU16(msg, next+6))
			start := next + 10
			end := start + int(naiveU16(msg, next+8))
			if end > len(msg) {
				return nil, errNaiveShort
			}
			off = end
			if typ == TypeOPT {
				if m.EDNS, err = naiveOPT(class, ttl, msg[start:end]); err != nil {
					return nil, err
				}
				continue
			}
			data, err := naiveRData(msg, typ, start, end)
			if err != nil {
				return nil, err
			}
			*sections[s] = append(*sections[s], RR{Name: owner, Type: typ, Class: Class(class), TTL: ttl, Data: data})
		}
	}
	return m, nil
}

var (
	errNaiveShort   = errors.New("naive: message too short")
	errNaiveRData   = errors.New("naive: rdata length mismatch")
	errNaivePointer = errors.New("naive: bad compression pointer")
	errNaiveDot     = errors.New("naive: '.' inside a label")
)

func naiveU16(b []byte, i int) uint16 { return uint16(b[i])<<8 | uint16(b[i+1]) }

func naiveU32(b []byte, i int) uint32 {
	return uint32(naiveU16(b, i))<<16 | uint32(naiveU16(b, i+2))
}

// naiveName reads the name at off and returns it with the offset just past
// it in the record (past the first pointer, when there is one).
func naiveName(msg []byte, off int) (Name, int, error) {
	var labels []string
	next, size, hops := -1, 0, 0
	for {
		if off >= len(msg) {
			return "", 0, errNaiveShort
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			n, err := MakeName(strings.Join(labels, "."))
			return n, next, err
		case c < 64:
			if off+1+c > len(msg) {
				return "", 0, errNaiveShort
			}
			if size += 1 + c; size > 255 {
				return "", 0, ErrNameTooLong
			}
			label := string(msg[off+1 : off+1+c])
			if strings.Contains(label, ".") {
				return "", 0, errNaiveDot // joined, it would read as two labels
			}
			labels = append(labels, label)
			off += 1 + c
		case c >= 192:
			if off+2 > len(msg) {
				return "", 0, errNaiveShort
			}
			if next < 0 {
				next = off + 2
			}
			ptr := int(naiveU16(msg, off) & 0x3FFF)
			if hops++; hops > 32 || ptr >= off {
				return "", 0, errNaivePointer
			}
			off = ptr
		default:
			return "", 0, errNaivePointer // reserved label types 01 and 10
		}
	}
}

func naiveOPT(udpSize uint16, ttl uint32, opts []byte) (*EDNS, error) {
	e := &EDNS{UDPSize: udpSize, DO: ttl&0x8000 != 0}
	for len(opts) >= 4 {
		code, n := naiveU16(opts, 0), int(naiveU16(opts, 2))
		if 4+n > len(opts) {
			return nil, errNaiveRData
		}
		if code == 12 { // RFC 7830 padding
			e.Padding = n
		}
		opts = opts[4+n:]
	}
	return e, nil
}

func naiveCopy(b []byte) []byte { return append([]byte{}, b...) }

// naiveRData decodes msg[start:end]; names may point anywhere earlier in msg.
func naiveRData(msg []byte, typ Type, start, end int) (RData, error) {
	rd := msg[start:end]
	// name reads a name that must end inside the RDATA.
	name := func(off int) (Name, int, error) {
		n, next, err := naiveName(msg, off)
		if err == nil && next > end {
			err = errNaiveRData
		}
		return n, next, err
	}
	fixed := func(n int) error {
		if len(rd) != n {
			return errNaiveRData
		}
		return nil
	}
	atLeast := func(n int) error {
		if len(rd) < n {
			return errNaiveRData
		}
		return nil
	}
	switch typ {
	case TypeA:
		if err := fixed(4); err != nil {
			return nil, err
		}
		return &AData{Addr: netip.AddrFrom4([4]byte(rd))}, nil
	case TypeAAAA:
		if err := fixed(16); err != nil {
			return nil, err
		}
		return &AAAAData{Addr: netip.AddrFrom16([16]byte(rd))}, nil
	case TypeNS, TypeCNAME, TypePTR:
		n, next, err := name(start)
		if err == nil && next != end {
			err = errNaiveRData
		}
		if err != nil {
			return nil, err
		}
		switch typ {
		case TypeNS:
			return &NSData{Target: n}, nil
		case TypeCNAME:
			return &CNAMEData{Target: n}, nil
		}
		return &PTRData{Target: n}, nil
	case TypeSOA:
		mname, next, err := name(start)
		if err != nil {
			return nil, err
		}
		rname, next, err := name(next)
		if err != nil {
			return nil, err
		}
		if end-next != 20 {
			return nil, errNaiveRData
		}
		return &SOAData{
			MName: mname, RName: rname, Serial: naiveU32(msg, next), Refresh: naiveU32(msg, next+4),
			Retry: naiveU32(msg, next+8), Expire: naiveU32(msg, next+12), MinTTL: naiveU32(msg, next+16),
		}, nil
	case TypeMX:
		if err := atLeast(2); err != nil {
			return nil, err
		}
		n, next, err := name(start + 2)
		if err == nil && next != end {
			err = errNaiveRData
		}
		if err != nil {
			return nil, err
		}
		return &MXData{Preference: naiveU16(rd, 0), Exchange: n}, nil
	case TypeTXT:
		var out TXTData
		for i := 0; i < len(rd); {
			n := int(rd[i])
			if i+1+n > len(rd) {
				return nil, errNaiveRData
			}
			out.Strings = append(out.Strings, string(rd[i+1:i+1+n]))
			i += 1 + n
		}
		return &out, nil
	case TypeDNSKEY:
		if err := atLeast(4); err != nil {
			return nil, err
		}
		return &DNSKEYData{Flags: naiveU16(rd, 0), Protocol: rd[2], Algorithm: rd[3], PublicKey: naiveCopy(rd[4:])}, nil
	case TypeDS, TypeDLV:
		if err := atLeast(4); err != nil {
			return nil, err
		}
		tag, alg, dt, digest := naiveU16(rd, 0), rd[2], rd[3], naiveCopy(rd[4:])
		if typ == TypeDS {
			return &DSData{KeyTag: tag, Algorithm: alg, DigestType: dt, Digest: digest}, nil
		}
		return &DLVData{KeyTag: tag, Algorithm: alg, DigestType: dt, Digest: digest}, nil
	case TypeRRSIG:
		if err := atLeast(18); err != nil {
			return nil, err
		}
		signer, next, err := name(start + 18)
		if err != nil {
			return nil, err
		}
		return &RRSIGData{
			TypeCovered: Type(naiveU16(rd, 0)), Algorithm: rd[2], Labels: rd[3],
			OriginalTTL: naiveU32(rd, 4), Expiration: naiveU32(rd, 8), Inception: naiveU32(rd, 12),
			KeyTag: naiveU16(rd, 16), SignerName: signer, Signature: naiveCopy(msg[next:end]),
		}, nil
	case TypeNSEC:
		next, after, err := name(start)
		if err != nil {
			return nil, err
		}
		types, err := naiveBitmap(msg[after:end])
		if err != nil {
			return nil, err
		}
		return &NSECData{NextName: next, Types: types}, nil
	case TypeNSEC3:
		if err := atLeast(5); err != nil {
			return nil, err
		}
		saltEnd := 5 + int(rd[4])
		if err := atLeast(saltEnd + 1); err != nil {
			return nil, err
		}
		hashEnd := saltEnd + 1 + int(rd[saltEnd])
		if err := atLeast(hashEnd); err != nil {
			return nil, err
		}
		types, err := naiveBitmap(rd[hashEnd:])
		if err != nil {
			return nil, err
		}
		return &NSEC3Data{
			HashAlgorithm: rd[0], Flags: rd[1], Iterations: naiveU16(rd, 2),
			Salt: naiveCopy(rd[5:saltEnd]), NextHash: naiveCopy(rd[saltEnd+1 : hashEnd]), Types: types,
		}, nil
	}
	return &RawData{T: typ, Data: naiveCopy(rd)}, nil
}

// naiveBitmap decodes an NSEC/NSEC3 type bitmap: windows of 1 to 32 octets.
func naiveBitmap(b []byte) ([]Type, error) {
	var types []Type
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errNaiveRData
		}
		window, n := int(b[0]), int(b[1])
		if n == 0 || n > 32 || 2+n > len(b) {
			return nil, errNaiveRData
		}
		for i, octet := range b[2 : 2+n] {
			for bit := 0; bit < 8; bit++ {
				if octet&(0x80>>bit) != 0 {
					types = append(types, Type(window<<8|i*8+bit))
				}
			}
		}
		b = b[2+n:]
	}
	return types, nil
}
