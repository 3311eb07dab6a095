package authserver

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// packetKey identifies a cacheable query shape. Everything a response can
// depend on is in the key: the question tuple, the presence of EDNS (an OPT
// record changes the wire size), the DO bit (changes DNSSEC sections), the
// RD flag (mirrored into the response header), and — when a remedy is
// active — the Signaler's answer for the question name, so TXT/Z-bit
// synthesis changes the key instead of invalidating entries.
type packetKey struct {
	qname dns.Name
	qtype dns.Type
	class dns.Class
	flags uint8
}

const (
	pkEDNS uint8 = 1 << iota
	pkDO
	pkRD
	pkDLVKnown // a remedy is active and the Signaler was consulted
	pkDLVSet   // the Signaler reported a deposited DLV record
)

// packetEntry stores one fully shaped response: its wire encoding (served
// on hits by patching the 2-byte message ID, like Unbound's packet cache)
// and the canonical decoded message (served by shallow header copy —
// section slices and RData are shared under the codebase-wide contract
// that exchanged responses are read-only), pinned to the source generation
// that produced it.
type packetEntry struct {
	wire   []byte
	msg    *dns.Message
	srcGen uint64
}

// packetCacheCap is the default entry bound of each cache; when full it
// resets rather than evicting (entries rebuild cheaply and
// deterministically).
const packetCacheCap = 1 << 16

// seenBits sizes the per-cache "asked once" filter, and seenResetAt is the
// number of marks at which it is wiped. A bit set by another key admits a
// first-touch response by mistake; wiping at one sixteenth full keeps that
// share under ~6 %. A cache therefore remembers a first ask for the next
// few hundred distinct keys, which is what tells a repeating key from a
// population walked once. The filter is 1 KB, so the thousands of hosting
// pool caches of a paper-scale universe cost nothing to speak of.
const (
	seenShift   = 13
	seenBits    = 1 << seenShift
	seenResetAt = seenBits / 16
)

// PacketCache is an authoritative wire-response cache with second-touch
// admission: a response is retained only from the second time its key
// misses, so a name nobody asks about twice — every name of a cold or
// sweeping workload — is answered and forgotten rather than kept (and
// traced by the collector) until the wholesale reset.
type PacketCache struct {
	mu      sync.RWMutex
	entries map[packetKey]*packetEntry
	cap     int

	hits   atomic.Uint64
	misses atomic.Uint64

	// seen holds one bit per hashed key that has missed once since the
	// filter was last wiped; marks counts the bits set. Guarded by mu, and
	// last in the struct so the fields a hit touches stay on one line.
	marks int
	seen  [seenBits / 64]uint64
}

// newPacketCache creates an empty cache bounded at n entries (default
// capacity when n <= 0). The cap bounds what repeating keys may retain; a
// key asked once is not retained at any cap.
func newPacketCache(n int) *PacketCache {
	if n <= 0 {
		n = packetCacheCap
	}
	return &PacketCache{entries: make(map[packetKey]*packetEntry), cap: n}
}

// Invalidate drops every entry and forgets every first ask, so the next
// asks of every key are answered as first touches again.
func (c *PacketCache) Invalidate() {
	c.mu.Lock()
	c.resetLocked()
	c.mu.Unlock()
}

// resetLocked empties the cache and the admission filter together.
func (c *PacketCache) resetLocked() {
	clear(c.entries)
	c.seen = [seenBits / 64]uint64{}
	c.marks = 0
}

// seenBit maps a key to its filter bit: FNV-1a over the name, the rest of the
// tuple folded in, finished with a multiply so the top bits depend on all of
// it. A fixed hash keeps hit counts reproducible run to run.
func (k packetKey) seenBit() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.qname); i++ {
		h = (h ^ uint64(k.qname[i])) * 1099511628211
	}
	h ^= uint64(k.qtype)<<24 | uint64(k.class)<<8 | uint64(k.flags)
	return (h * 0x9E3779B97F4A7C15) >> (64 - seenShift)
}

// admitLocked reports whether key has missed before, and marks it if not.
func (c *PacketCache) admitLocked(key packetKey) bool {
	bit := key.seenBit()
	word, mask := &c.seen[bit/64], uint64(1)<<(bit%64)
	if *word&mask != 0 {
		return true
	}
	if c.marks >= seenResetAt {
		c.seen = [seenBits / 64]uint64{}
		c.marks = 0
	}
	*word |= mask
	c.marks++
	return false
}

// Stats returns the hit and miss counts.
func (c *PacketCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Aggregate counters across every cache in the process, for experiment-wide
// hit-rate reporting (mirrors dnssec.VerifyCache's Stats pattern).
var totalHits, totalMisses atomic.Uint64

// CacheTotals returns process-wide packet-cache hits and misses.
func CacheTotals() (hits, misses uint64) {
	return totalHits.Load(), totalMisses.Load()
}

// cacheableQuery reports whether q's response is a pure function of the
// packet key: a plain QUERY with exactly one question and empty record
// sections. Anything else goes to the uncached path.
func cacheableQuery(q *dns.Message) bool {
	h := q.Header
	return !h.QR && h.Opcode == dns.OpcodeQuery && h.RCode == 0 &&
		len(q.Question) == 1 && len(q.Answer) == 0 &&
		len(q.Authority) == 0 && len(q.Additional) == 0
}

// keyFor builds the cache key for a cacheable query under cfg.
func keyFor(q *dns.Message, cfg *Config) packetKey {
	question := q.Question[0]
	k := packetKey{qname: question.Name, qtype: question.Type, class: question.Class}
	if q.EDNS != nil {
		k.flags |= pkEDNS
		if q.EDNS.DO {
			k.flags |= pkDO
		}
	}
	if q.Header.RD {
		k.flags |= pkRD
	}
	if (cfg.TXTRemedy || cfg.ZBitRemedy) && cfg.Signaler != nil {
		k.flags |= pkDLVKnown
		if cfg.Signaler.HasDLV(question.Name) {
			k.flags |= pkDLVSet
		}
	}
	return k
}

// sourceGeneration returns a source's mutation counter; sources without one
// (generative synthetics) are treated as immutable.
func sourceGeneration(src Source) uint64 {
	if g, ok := src.(interface{ Generation() uint64 }); ok {
		return g.Generation()
	}
	return 0
}

// respondUncached builds the response and retains nothing: it is encoded
// straight into dst when wantWire is set and not at all otherwise.
func respondUncached(src Source, cfg Config, q *dns.Message, dst []byte, wantWire bool) (*dns.Message, []byte, error) {
	resp, err := shapeResponse(src, cfg, q)
	if err != nil {
		return nil, nil, err
	}
	if wantWire {
		if dst, err = resp.AppendEncode(dst); err != nil {
			return nil, nil, err
		}
	}
	return resp, dst, nil
}

// respond answers q for src under cfg through the cache. The returned
// message owns its header but shares section slices with the cache entry:
// callers may read it freely and must treat the record sections as
// immutable — the same contract the wire fast path already imposes on
// every exchanged response. When wantWire is set, the encoded response (ID
// already matching q) is appended to dst and returned; on a cache hit that
// is a copy-and-patch, not an encode. A miss that is not admitted encodes
// straight into dst, or not at all without wantWire; the response is the
// same bytes either way.
func (c *PacketCache) respond(src Source, cfg Config, q *dns.Message, dst []byte, wantWire bool) (*dns.Message, []byte, error) {
	if !cacheableQuery(q) {
		return respondUncached(src, cfg, q, dst, wantWire)
	}

	key := keyFor(q, &cfg)
	gen := sourceGeneration(src)
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if ok && e.srcGen == gen {
		c.hits.Add(1)
		totalHits.Add(1)
		// Shallow copy: one allocation for the header the caller owns;
		// sections stay shared with the entry (read-only by contract).
		cp := *e.msg
		cp.Header.ID = q.Header.ID
		if wantWire {
			at := len(dst)
			dst = append(dst, e.wire...)
			binary.BigEndian.PutUint16(dst[at:], q.Header.ID)
		}
		return &cp, dst, nil
	}

	c.misses.Add(1)
	totalMisses.Add(1)
	c.mu.Lock()
	admit := c.admitLocked(key)
	c.mu.Unlock()
	if !admit {
		// First ask: nothing is retained, so the caller owns resp outright.
		return respondUncached(src, cfg, q, dst, wantWire)
	}
	resp, err := shapeResponse(src, cfg, q)
	if err != nil {
		return nil, nil, err
	}
	wire, err := resp.Encode()
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	if len(c.entries) >= c.cap {
		c.resetLocked()
	}
	c.entries[key] = &packetEntry{wire: wire, msg: resp, srcGen: gen}
	c.mu.Unlock()
	if wantWire {
		dst = append(dst, wire...)
	}
	// Same shallow-copy shape as the hit path, so the miss caller owns the
	// header too (the ID already mirrors q; shapeResponse copies it).
	cp := *resp
	return &cp, dst, nil
}
