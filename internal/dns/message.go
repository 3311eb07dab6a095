package dns

import (
	"fmt"
	"strings"
)

// Question is the query section entry.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String implements fmt.Stringer.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Header carries the fixed DNS header flags. The Z field is the reserved
// bit between RA and RCODE (RFC 1035 §4.1.1, narrowed by RFC 2535/4035 to a
// single bit once AD and CD were assigned); the paper's "DLV-aware DNS"
// remedy repurposes it to signal that the answered domain has a DLV record
// deposited.
type Header struct {
	ID     uint16
	QR     bool // response flag
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	Z      bool // reserved bit; used by the Z-bit remedy
	AD     bool // authenticated data
	CD     bool // checking disabled
	RCode  RCode
}

// EDNS carries the EDNS0 OPT pseudo-record state (RFC 6891): the
// advertised UDP payload size, the DO ("DNSSEC OK") bit, and the RFC 7830
// padding option used by the size-side-channel mitigation the paper's
// related work discusses.
type EDNS struct {
	UDPSize uint16
	DO      bool
	// Padding is the number of zero octets carried in the RFC 7830
	// padding option; 0 means no padding option is present.
	Padding int
}

// DefaultUDPSize is the EDNS0 buffer size advertised by the resolver.
const DefaultUDPSize = 4096

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR
	// EDNS is non-nil when the message carries an OPT record.
	EDNS *EDNS
}

// NewQuery builds a standard recursive-desired query for (name, type) with
// EDNS0 and the DO bit set when dnssecOK is true.
func NewQuery(id uint16, name Name, qtype Type, dnssecOK bool) *Message {
	m := &Message{
		Header: Header{
			ID:     id,
			Opcode: OpcodeQuery,
			RD:     true,
		},
		Question: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
	if dnssecOK {
		m.EDNS = &EDNS{UDPSize: DefaultUDPSize, DO: true}
	}
	return m
}

// NewResponse builds a response skeleton mirroring the query's ID, question,
// opcode, RD flag, and EDNS state.
func NewResponse(q *Message) *Message {
	r := &Message{
		Header: Header{
			ID:     q.Header.ID,
			QR:     true,
			Opcode: q.Header.Opcode,
			RD:     q.Header.RD,
		},
	}
	r.Question = append(r.Question, q.Question...)
	if q.EDNS != nil {
		r.EDNS = &EDNS{UDPSize: DefaultUDPSize, DO: q.EDNS.DO}
	}
	return r
}

// DNSSECOK reports whether the message advertises DNSSEC support (EDNS0 DO).
func (m *Message) DNSSECOK() bool { return m.EDNS != nil && m.EDNS.DO }

// Clone returns a structurally independent copy of m: fresh section slices
// and EDNS state, so the caller may mutate headers and append to sections
// without affecting m. RData payloads are shared — they are treated as
// immutable throughout the codebase (zone storage hands out the same
// pointers). Packet caches rely on this to serve one stored response to
// many concurrent clients.
func (m *Message) Clone() *Message {
	c := &Message{Header: m.Header}
	if m.Question != nil {
		c.Question = make([]Question, len(m.Question))
		copy(c.Question, m.Question)
	}
	c.Answer = cloneRRs(m.Answer)
	c.Authority = cloneRRs(m.Authority)
	c.Additional = cloneRRs(m.Additional)
	if m.EDNS != nil {
		e := *m.EDNS
		c.EDNS = &e
	}
	return c
}

func cloneRRs(rrs []RR) []RR {
	if rrs == nil {
		return nil
	}
	out := make([]RR, len(rrs))
	copy(out, rrs)
	return out
}

// PadToBlock sets the RFC 7830 padding so the encoded message length is a
// multiple of block (RFC 8467 recommends 128 for queries, 468 for
// responses). Messages without EDNS gain an OPT record.
func (m *Message) PadToBlock(block int) error {
	if block <= 0 {
		return nil
	}
	if m.EDNS == nil {
		m.EDNS = &EDNS{UDPSize: DefaultUDPSize}
	}
	m.EDNS.Padding = 0
	size, err := m.WireSize()
	if err != nil {
		return err
	}
	if size%block == 0 {
		return nil // already aligned without the option
	}
	// Any padding costs a 4-octet option header; pad up to the next block
	// boundary past it.
	withHeader := size + 4
	target := (withHeader + block - 1) / block * block
	m.EDNS.Padding = target - withHeader
	return nil
}

// QName returns the first question name, or the root if there is none.
func (m *Message) QName() Name {
	if len(m.Question) == 0 {
		return Root
	}
	return m.Question[0].Name
}

// QType returns the first question type, or 0 if there is none.
func (m *Message) QType() Type {
	if len(m.Question) == 0 {
		return 0
	}
	return m.Question[0].Type
}

// String renders the message in a dig-like multi-line presentation form.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; id=%d %s qr=%t aa=%t tc=%t rd=%t ra=%t z=%t ad=%t cd=%t rcode=%s\n",
		m.Header.ID, m.Header.Opcode, m.Header.QR, m.Header.AA, m.Header.TC,
		m.Header.RD, m.Header.RA, m.Header.Z, m.Header.AD, m.Header.CD, m.Header.RCode)
	if m.EDNS != nil {
		fmt.Fprintf(&b, ";; edns: udp=%d do=%t\n", m.EDNS.UDPSize, m.EDNS.DO)
	}
	for _, q := range m.Question {
		fmt.Fprintf(&b, ";%s\n", q)
	}
	writeSection := func(label string, rrs []RR) {
		if len(rrs) == 0 {
			return
		}
		fmt.Fprintf(&b, ";; %s:\n", label)
		for _, rr := range rrs {
			fmt.Fprintf(&b, "%s\n", rr)
		}
	}
	writeSection("ANSWER", m.Answer)
	writeSection("AUTHORITY", m.Authority)
	writeSection("ADDITIONAL", m.Additional)
	return b.String()
}
