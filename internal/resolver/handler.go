package resolver

import (
	"errors"
	"net/netip"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// Compile-time check: the resolver can be registered on the simulated
// network as the recursive server stubs talk to.
var _ simnet.Handler = (*Resolver)(nil)

// HandleQuery implements simnet.Handler: it serves a stub's recursive query
// by running the full resolution pipeline and shaping the stub-facing
// response (RA set, AD reflecting validation, SERVFAIL for bogus).
func (r *Resolver) HandleQuery(q *dns.Message, _ netip.Addr) (*dns.Message, error) {
	resp := dns.NewResponse(q)
	resp.Header.RA = true
	if len(q.Question) == 0 {
		resp.Header.RCode = dns.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]
	res, err := r.Resolve(question.Name, question.Type)
	if err != nil {
		// Resolution errors (unreachable servers, loops) surface to the
		// stub as SERVFAIL, as a real recursive would do.
		if errors.Is(err, ErrServfail) || errors.Is(err, ErrNoServers) ||
			errors.Is(err, ErrDepthLimit) || errors.Is(err, ErrLoopDetected) ||
			errors.Is(err, simnet.ErrServerDown) || errors.Is(err, simnet.ErrNoRoute) ||
			errors.Is(err, simnet.ErrPacketLoss) || errors.Is(err, simnet.ErrCorruptResponse) ||
			errors.Is(err, faults.ErrDeadlineExceeded) {
			resp.Header.RCode = dns.RCodeServFail
			return resp, nil
		}
		return nil, err
	}
	return r.shape(resp, q, res)
}

// CachedResponse answers q from the resolver's cache alone, exactly as
// HandleQuery would answer it on a cache hit; ok is false when it is not
// one. It reads only the configuration and the concurrency-safe Cache and
// counts nothing, so a pool may call it on any instance without holding
// that instance — and then owns the Resolutions and CacheHits accounting
// of what it served.
func (r *Resolver) CachedResponse(q *dns.Message) (resp *dns.Message, ok bool) {
	if len(q.Question) == 0 {
		return nil, false
	}
	question := q.Question[0]
	hit, ok := r.cache.answer(dns.Key{Name: question.Name, Type: question.Type, Class: dns.ClassIN}, r.cache.advance(0))
	if !ok || !r.answersStub(hit) {
		return nil, false
	}
	resp = dns.NewResponse(q)
	resp.Header.RA = true
	resp, err := r.shape(resp, q, stubResult(hit))
	return resp, err == nil
}

// shape fills the stub-facing response to q from a resolution result: the
// rcode, the answer, AD reflecting validation, and padding.
func (r *Resolver) shape(resp, q *dns.Message, res *Result) (*dns.Message, error) {
	resp.Header.RCode = res.RCode
	resp.Answer = res.Answer
	if q.DNSSECOK() && res.Status == StatusSecure {
		resp.Header.AD = true
	}
	if r.cfg.PaddingBlock > 0 {
		if err := resp.PadToBlock(r.cfg.PaddingBlock); err != nil {
			return nil, err
		}
	}
	return resp, nil
}
