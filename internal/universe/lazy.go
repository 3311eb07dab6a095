package universe

// Lazy universe materialization. The default Build precomputes only the
// root, the TLD zone shells, and the registry shell; every per-domain
// artifact — TLD delegations and glue, parent-side DS records, DLV deposits
// — is derived on first query through zone.SynthSource implementations.
// All derivations are pure functions of (seed, population), so the lazy
// universe serves byte-identical wire responses to the eager one
// (TestLazyEagerEquivalence) while Build cost is O(TLDs), not O(population).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// lookupDomain resolves a name to its domain spec: extras first (they
// override population entries of the same name, as the eager index did),
// then the population.
func (u *Universe) lookupDomain(name dns.Name) (*dataset.Domain, bool) {
	if d, ok := u.extras[name]; ok {
		return d, true
	}
	return u.opts.Population.Lookup(name)
}

// eachDomain visits every domain exactly once — the population with extras
// overriding same-name entries, then the extras — stopping on error. The
// eager build and the registry's deposit set walk it; TLD indexes read the
// population grouped once by TLD instead (tldGroups).
func (u *Universe) eachDomain(fn func(*dataset.Domain) error) error {
	for i := range u.opts.Population.Domains {
		d := &u.opts.Population.Domains[i]
		if _, ok := u.extras[d.Name]; ok {
			continue
		}
		if err := fn(d); err != nil {
			return err
		}
	}
	for _, d := range u.extras {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

// tldGroups is the population grouped by TLD, built by one pass over it on
// the first TLD index any zone asks for: pos holds population positions, a
// TLD's run in population order, and byLabel slices it per label. Entries
// an extra overrides are left out, as eachDomain leaves them out. pos holds
// no pointers — 4 B a domain, one object for the collector to skip — where
// a *Domain per entry would cost 8 B a domain and a pointer to trace.
type tldGroups struct {
	once    sync.Once
	pos     []uint32
	byLabel map[string][]uint32
}

// tldChildren returns the population positions under a TLD label, grouping
// the whole population on the first call.
func (u *Universe) tldChildren(label string) []uint32 {
	g := &u.groups
	g.once.Do(func() { g.build(u) })
	return g.byLabel[label]
}

// build is a counting sort of positions by TLD: one pass numbers each
// position's label and counts, one places. Only the first reads a name or a
// map. The positions extras override are found through the population's
// index and left out.
func (g *tldGroups) build(u *Universe) {
	pop := u.opts.Population
	const overridden = ^uint32(0)
	labelOf := make([]uint32, len(pop.Domains)) // position -> label number
	for name := range u.extras {
		if i, ok := pop.Position(name); ok {
			labelOf[i] = overridden
		}
	}
	ids := make(map[string]uint32)
	var labels []string
	var counts []uint32
	placed := 0
	for i := range labelOf {
		if labelOf[i] == overridden {
			continue
		}
		tld := pop.Domains[i].TLD()
		id, ok := ids[tld]
		if !ok {
			id = uint32(len(labels))
			ids[tld] = id
			labels, counts = append(labels, tld), append(counts, 0)
		}
		labelOf[i] = id
		counts[id]++
		placed++
	}
	// Each label's run starts empty with its exact capacity, so the appends
	// of the second pass fill it in place.
	g.pos = make([]uint32, placed)
	runs := make([][]uint32, len(labels))
	off := uint32(0)
	for id, n := range counts {
		runs[id] = g.pos[off : off : off+n]
		off += n
	}
	for i, id := range labelOf {
		if id != overridden {
			runs[id] = append(runs[id], uint32(i))
		}
	}
	g.byLabel = make(map[string][]uint32, len(labels))
	for id, l := range labels {
		g.byLabel[l] = runs[id]
	}
}

// tldSynth derives one TLD zone's delegation universe: a cut per child
// domain (with DS when the chain reaches the parent) and one glue address
// per hosting pool the TLD's children use.
type tldSynth struct {
	u      *Universe
	label  string
	signed bool
}

// SynthIndex implements zone.SynthSource. The index is the complete child
// set of the TLD — independent of query order, so NSEC chain arithmetic in
// the zone is exact from the first query. It reads the TLD's own run of the
// grouped population and the extras under the label, not the population.
func (s *tldSynth) SynthIndex() []zone.SynthEntry {
	doms := s.u.opts.Population.Domains
	children := s.u.tldChildren(s.label)
	var extras []*dataset.Domain
	for _, d := range s.u.extras {
		if d.TLD() == s.label {
			extras = append(extras, d)
		}
	}
	// Pools first, so entries is sized exactly before it is filled.
	used, pools := make([]bool, s.u.hostPools), 0
	use := func(d *dataset.Domain) {
		if p := s.u.pool(d.Name); !used[p] {
			used[p] = true
			pools++
		}
	}
	for _, i := range children {
		use(&doms[i])
	}
	for _, d := range extras {
		use(d)
	}
	entries := make([]zone.SynthEntry, 0, len(children)+len(extras)+pools)
	add := func(d *dataset.Domain) {
		kind := zone.SynthCut
		if d.Signed && d.DSInParent && s.signed {
			kind = zone.SynthSecureCut
		}
		entries = append(entries, zone.SynthEntry{Name: d.Name, Kind: kind})
	}
	for _, i := range children {
		add(&doms[i])
	}
	for _, d := range extras {
		add(d)
	}
	for p, ok := range used {
		if !ok {
			continue
		}
		// poolNSName cannot fail for a label that already formed a zone apex.
		if name, err := poolNSName(p, s.label); err == nil {
			entries = append(entries, zone.SynthEntry{Name: name, Kind: zone.SynthGlue, Aux: uint32(p)})
		}
	}
	return entries
}

// SynthRecords implements zone.SynthSource. NS and DS records carry TTL 0
// so the zone fills its default, exactly as Delegate and AttachDS do on the
// eager path; glue carries the root-style 172800 the eager path sets.
func (s *tldSynth) SynthRecords(e zone.SynthEntry) ([]dns.RR, error) {
	if e.Kind == zone.SynthGlue {
		return []dns.RR{{
			Name: e.Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
			Data: &dns.AData{Addr: poolAddr(int(e.Aux))},
		}}, nil
	}
	nsName, err := poolNSName(s.u.pool(e.Name), s.label)
	if err != nil {
		return nil, err
	}
	rrs := []dns.RR{{
		Name: e.Name, Type: dns.TypeNS, Class: dns.ClassIN,
		Data: &dns.NSData{Target: nsName},
	}}
	if e.Kind == zone.SynthSecureCut {
		k, err := s.u.genKeys(e.Name)
		if err != nil {
			return nil, err
		}
		if s.u.corruptDS[e.Name] {
			// Failure injection: a DS for a key the zone does not hold,
			// breaking the chain into a bogus outcome (as on the eager path).
			if k, err = s.u.genKeys(dns.MustName("evil.invalid")); err != nil {
				return nil, err
			}
		}
		ds, err := s.u.dsFor(e.Name, k)
		if err != nil {
			return nil, err
		}
		rrs = append(rrs, dns.RR{
			Name: e.Name, Type: dns.TypeDS, Class: dns.ClassIN, Data: ds,
		})
	}
	return rrs, nil
}

// regSynth derives the registry's deposit set: one DLV record per signed,
// in-DLV domain, owned by its look-aside name. It doubles as the registry's
// dlv.DepositIndex, answering deposit membership straight from the domain
// spec without materializing anything.
type regSynth struct {
	u *Universe

	once    sync.Once
	entries []zone.SynthEntry
	owners  map[dns.Name]dns.Name // look-aside owner -> depositing domain
	count   int
}

// build indexes the deposit owners once; safe under zone lock and from
// concurrent Signaler callers alike.
func (s *regSynth) build() {
	apex := s.u.RegistryZone
	hashed := s.u.opts.RegistryHashed
	s.owners = make(map[dns.Name]dns.Name)
	_ = s.u.eachDomain(func(d *dataset.Domain) error {
		if !d.InDLV || !d.Signed {
			return nil
		}
		owner, err := dlv.LookasideName(d.Name, apex, hashed)
		if err != nil {
			return nil // an undepositable name would have failed eager Build too
		}
		s.owners[owner] = d.Name
		s.entries = append(s.entries, zone.SynthEntry{
			Name: owner, Kind: zone.SynthLeaf, Aux: uint32(dns.TypeDLV),
		})
		s.count++
		return nil
	})
}

// SynthIndex implements zone.SynthSource.
func (s *regSynth) SynthIndex() []zone.SynthEntry {
	s.once.Do(s.build)
	return s.entries
}

// SynthRecords implements zone.SynthSource.
func (s *regSynth) SynthRecords(e zone.SynthEntry) ([]dns.RR, error) {
	s.once.Do(s.build)
	domain, ok := s.owners[e.Name]
	if !ok {
		return nil, fmt.Errorf("universe: no deposit behind %s", e.Name)
	}
	k, err := s.u.genKeys(domain)
	if err != nil {
		return nil, err
	}
	rec, err := dnssec.MakeDLV(domain, k.ksk.Public(), dnssec.DigestSHA256)
	if err != nil {
		return nil, fmt.Errorf("universe: dlv record for %s: %w", domain, err)
	}
	return []dns.RR{{
		Name: e.Name, Type: dns.TypeDLV, Class: dns.ClassIN, TTL: 3600, Data: rec,
	}}, nil
}

// HasDeposit implements dlv.DepositIndex from the domain spec alone — no
// index build, so remedy-signal checks stay O(1) at any population size.
func (s *regSynth) HasDeposit(domain dns.Name) bool {
	d, ok := s.u.lookupDomain(domain)
	return ok && d.InDLV && d.Signed
}

// DepositCount implements dlv.DepositIndex.
func (s *regSynth) DepositCount() int {
	s.once.Do(s.build)
	return s.count
}

// sldCache memoizes lazily built SLD zones with singleflight semantics:
// concurrent first queries for the same apex build the zone exactly once,
// and other apexes never wait on that build. Entries are evicted (done ones
// only) at a per-shard cap; zones rebuild cheaply and deterministically.
const sldShardCount = 16

type sldCache struct {
	capPerShard int
	shards      [sldShardCount]sldShard
}

type sldShard struct {
	mu      sync.Mutex
	entries map[dns.Name]*sldEntry
}

type sldEntry struct {
	once sync.Once
	z    *zone.Zone
	err  error
	done atomic.Bool
}

func newSLDCache(cap int) *sldCache {
	per := cap / sldShardCount
	if per < 1 {
		per = 1
	}
	c := &sldCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[dns.Name]*sldEntry)
	}
	return c
}

// get returns the zone for name, building it at most once concurrently.
// The build runs outside the shard lock, so a slow build (signing a fresh
// zone) blocks only callers of the same apex.
func (c *sldCache) get(name dns.Name, build func() (*zone.Zone, error)) (*zone.Zone, error) {
	sh := &c.shards[hash64(string(name))%sldShardCount]
	sh.mu.Lock()
	e, ok := sh.entries[name]
	if !ok {
		if len(sh.entries) >= c.capPerShard {
			for k, old := range sh.entries {
				if old.done.Load() {
					delete(sh.entries, k)
					break
				}
			}
		}
		e = &sldEntry{}
		sh.entries[name] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		e.z, e.err = build()
		e.done.Store(true)
	})
	return e.z, e.err
}

// len counts cached zones across shards.
func (c *sldCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}
