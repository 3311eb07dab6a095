// Package authserver turns zone data into a DNS server: it routes each
// query to the zone source that answers it through a function fixed when
// the server is built (by default, the most specific of the server's
// zones), shapes zone.Result values into wire messages, and implements the
// authoritative half of the paper's two "DLV-aware DNS" remedies —
// publishing dlv=0/1 TXT signaling records and setting the reserved Z
// header bit on responses for domains with deposited DLV records (§6.2.1).
package authserver

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"

	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// Source is anything that can answer authoritative lookups for one zone.
// *zone.Zone implements it; generative sources (synthetic TLDs) do too.
type Source interface {
	Apex() dns.Name
	Lookup(qname dns.Name, qtype dns.Type, dnssecOK bool) (*zone.Result, error)
}

// Compile-time check that the concrete zone satisfies Source.
var _ Source = (*zone.Zone)(nil)

// Signaler reports whether a domain has a DLV record deposited in the DLV
// registry; the remedies use it to decide what to advertise.
type Signaler interface {
	HasDLV(domain dns.Name) bool
}

// SignalerFunc adapts a function to Signaler.
type SignalerFunc func(domain dns.Name) bool

// HasDLV implements Signaler.
func (f SignalerFunc) HasDLV(domain dns.Name) bool { return f(domain) }

// Config configures an authoritative server.
type Config struct {
	// Name labels the server in captures, e.g. "a.gtld-servers.net".
	Name string
	// TXTRemedy synthesizes dlv=0/1 TXT signaling answers for names the
	// server is authoritative for (the DLV-aware DNS remedy via TXT).
	TXTRemedy bool
	// ZBitRemedy sets the reserved Z header bit on responses for domains
	// with deposited DLV records (the DLV-aware DNS remedy via Z bit).
	ZBitRemedy bool
	// Signaler backs the two remedies; required when either is enabled.
	Signaler Signaler
	// PacketCacheCap bounds the wire-response cache's entry count (the
	// default cap when zero). Sweep-style workloads set a small cap: they
	// query each name once, so cached responses are rarely re-served.
	PacketCacheCap int
}

// Route maps a query name to the source that answers it. A nil Source
// with a nil error means the server is not authoritative for the name and
// refuses it; an error fails the exchange.
type Route func(qname dns.Name) (Source, error)

// Server is an authoritative DNS server. Its routing is fixed when it is
// built, so queries read it without a lock.
type Server struct {
	cfg   Config
	route Route
	// cache is the wire-response packet cache (it has its own lock).
	cache *PacketCache
}

// Compile-time check: Server plugs into the simulated network.
var _ simnet.Handler = (*Server)(nil)

// New creates a server over a fixed set of zone sources; each query goes
// to the most specific source whose apex contains it.
func New(cfg Config, sources ...Source) (*Server, error) {
	srcs := append([]Source(nil), sources...)
	sort.SliceStable(srcs, func(i, j int) bool {
		return srcs[i].Apex().LabelCount() > srcs[j].Apex().LabelCount()
	})
	return NewRouted(cfg, func(qname dns.Name) (Source, error) {
		for _, src := range srcs {
			if qname.IsSubdomainOf(src.Apex()) {
				return src, nil
			}
		}
		return nil, nil
	})
}

// NewRouted creates a server whose sources are chosen by route.
func NewRouted(cfg Config, route Route) (*Server, error) {
	if (cfg.TXTRemedy || cfg.ZBitRemedy) && cfg.Signaler == nil {
		return nil, errors.New("authserver: remedy enabled without signaler")
	}
	return &Server{cfg: cfg, route: route, cache: newPacketCache(cfg.PacketCacheCap)}, nil
}

// Cache exposes the server's packet cache, for stats.
func (s *Server) Cache() *PacketCache { return s.cache }

// HandleQuery implements simnet.Handler.
func (s *Server) HandleQuery(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
	resp, _, err := s.respond(q, nil, false)
	return resp, err
}

// HandleQueryWire implements simnet.WireResponder: it returns the response
// together with its wire encoding appended to dst, serving repeated
// questions from the packet cache without re-assembling or re-encoding.
func (s *Server) HandleQueryWire(q *dns.Message, _ netip.Addr, dst []byte) (*dns.Message, []byte, error) {
	return s.respond(q, dst, true)
}

func (s *Server) respond(q *dns.Message, dst []byte, wantWire bool) (*dns.Message, []byte, error) {
	if len(q.Question) == 0 {
		return finishError(q, dns.RCodeFormErr, dst, wantWire)
	}
	src, err := s.route(q.Question[0].Name)
	if err != nil {
		return nil, nil, err
	}
	if src == nil {
		return finishError(q, dns.RCodeRefused, dst, wantWire)
	}
	return s.cache.respond(src, s.cfg, q, dst, wantWire)
}

// finishError builds (and, when asked, encodes) an error-rcode response.
func finishError(q *dns.Message, rcode dns.RCode, dst []byte, wantWire bool) (*dns.Message, []byte, error) {
	resp := dns.NewResponse(q)
	resp.Header.RCode = rcode
	if wantWire {
		var err error
		if dst, err = resp.AppendEncode(dst); err != nil {
			return nil, nil, err
		}
	}
	return resp, dst, nil
}

// Transferable is implemented by sources that can export their complete
// contents for zone transfer (AXFR, RFC 5936); *zone.Zone qualifies.
type Transferable interface {
	TransferRecords() ([]dns.RR, error)
}

// shapeResponse builds one authoritative response for a query against a
// single zone source, applying the configured remedies.
func shapeResponse(src Source, cfg Config, q *dns.Message) (*dns.Message, error) {
	resp := dns.NewResponse(q)
	if len(q.Question) == 0 {
		resp.Header.RCode = dns.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]

	if question.Type == dns.TypeAXFR {
		return respondAXFR(src, question, resp)
	}

	res, err := src.Lookup(question.Name, question.Type, q.DNSSECOK())
	if err != nil {
		return nil, fmt.Errorf("authserver %s: lookup %s/%s: %w", cfg.Name, question.Name, question.Type, err)
	}

	// TXT remedy: a TXT query that would otherwise be empty is answered
	// with the synthesized dlv=0/1 signal for names the zone contains.
	if cfg.TXTRemedy && question.Type == dns.TypeTXT &&
		(res.Kind == zone.KindNoData || res.Kind == zone.KindNXDomain) {
		res = synthesizeTXT(question.Name, cfg.Signaler)
	}

	resp.Header.RCode = res.RCode
	resp.Header.AA = res.Kind == zone.KindAnswer || res.Kind == zone.KindNXDomain || res.Kind == zone.KindNoData
	resp.Answer = res.Answer
	resp.Authority = res.Authority
	resp.Additional = res.Additional

	// Z-bit remedy: advertise DLV-record existence in the response header.
	if cfg.ZBitRemedy && cfg.Signaler.HasDLV(question.Name) {
		resp.Header.Z = true
	}
	return resp, nil
}

// respondAXFR serves a whole-zone transfer: the SOA-bracketed record
// stream of RFC 5936, as a single message (this implementation's zones fit
// one TCP frame; UDP clients receive a truncated reply and retry over TCP).
// Sources that cannot transfer, and queries not at the zone apex, are
// refused.
func respondAXFR(src Source, question dns.Question, resp *dns.Message) (*dns.Message, error) {
	tr, ok := src.(Transferable)
	if !ok || question.Name != src.Apex() {
		resp.Header.RCode = dns.RCodeRefused
		return resp, nil
	}
	rrs, err := tr.TransferRecords()
	if err != nil {
		return nil, fmt.Errorf("authserver: transferring %s: %w", question.Name, err)
	}
	if len(rrs) == 0 || rrs[0].Type != dns.TypeSOA {
		resp.Header.RCode = dns.RCodeServFail
		return resp, nil
	}
	resp.Header.AA = true
	resp.Answer = append(resp.Answer, rrs...)
	resp.Answer = append(resp.Answer, rrs[0]) // closing SOA
	return resp, nil
}

// synthesizeTXT builds the remedy signal answer.
func synthesizeTXT(qname dns.Name, sig Signaler) *zone.Result {
	signal := dlv.TXTSignal(sig.HasDLV(qname))
	return &zone.Result{
		Kind:  zone.KindAnswer,
		RCode: dns.RCodeNoError,
		Answer: []dns.RR{{
			Name: qname, Type: dns.TypeTXT, Class: dns.ClassIN, TTL: 300,
			Data: &dns.TXTData{Strings: []string{signal}},
		}},
	}
}
