package universe

import (
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/faults"
	"github.com/dnsprivacy/lookaside/internal/resolver"
)

// outage is a fault plan that keeps a server down for the whole run.
var outage = faults.Plan{Outages: []faults.Window{{Start: 0, End: 1 << 62}}}

// TestRegistryOutage reproduces the DLV failure mode discussed in §8.4:
// registry outages were a recurring operational problem. A resolver with
// look-aside armed must keep answering when the registry is unreachable.
func TestRegistryOutage(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	u.Net.SetFaultPlan(RegistryAddr, outage)
	d := pickDomain(t, u, func(d *dataset.Domain) bool { return !d.Signed })
	res, err := r.Resolve(d.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("resolution failed during registry outage: %v", err)
	}
	if res.RCode != dns.RCodeNoError || len(res.Answer) == 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Status != resolver.StatusInsecure {
		t.Fatalf("status = %s", res.Status)
	}

	// An island that would validate via DLV degrades gracefully: the
	// answer is served, but cannot reach secure.
	island := dataset.SecureDomains()[dataset.SecureDomainsCount-dataset.SecureIslandCount]
	res, err = r.Resolve(island.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("island resolution failed during outage: %v", err)
	}
	if res.Status == resolver.StatusSecure || res.UsedDLV {
		t.Fatalf("validated through a dead registry: %+v", res)
	}
	if r.Stats().DLVFailures == 0 {
		t.Fatal("outage not recorded in DLVFailures")
	}

	// Recovery: a fresh resolver after the outage validates again (the
	// first one has cached the indeterminate registry state, as BIND
	// would until the TTL passes).
	u.Net.ClearFaultPlans()
	r2 := newResolver(t, u, true, true)
	res, err = r2.Resolve(island.Name, dns.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != resolver.StatusSecure || !res.UsedDLV {
		t.Fatalf("no recovery after outage: %+v", res)
	}
}

// TestTLDOutage: a dead TLD server fails resolutions under it but leaves
// the rest of the namespace working.
func TestTLDOutage(t *testing.T) {
	u := buildTestUniverse(t, nil)
	r := newResolver(t, u, true, true)
	// Find the com TLD address by resolving something first.
	var comDomain, otherDomain *dataset.Domain
	comDomain = pickDomain(t, u, func(d *dataset.Domain) bool { return d.TLD() == "com" && !d.Signed })
	otherDomain = pickDomain(t, u, func(d *dataset.Domain) bool { return d.TLD() == "de" && !d.Signed })

	// Locate com's server: it is deterministic from the TLD table order,
	// but deriving it through a query capture is topology-independent.
	var comAddr = map[bool]struct{}{}
	_ = comAddr
	if _, err := r.Resolve(comDomain.Name, dns.TypeA); err != nil {
		t.Fatal(err)
	}
	// A second resolver would re-walk; instead take down every TLD server
	// by probing addresses the resolver has contacted is overkill — use
	// the exported helper instead.
	addr, ok := u.TLDAddr("com")
	if !ok {
		t.Fatal("com TLD missing")
	}
	u.Net.SetFaultPlan(addr, outage)

	// Fresh resolver (no cached delegation): com resolutions fail…
	r2 := newResolver(t, u, true, true)
	if _, err := r2.Resolve(comDomain.Name, dns.TypeA); err == nil {
		t.Fatal("resolution through dead TLD succeeded")
	}
	// …but other TLDs keep working.
	res, err := r2.Resolve(otherDomain.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("unrelated TLD affected: %v", err)
	}
	if res.RCode != dns.RCodeNoError {
		t.Fatalf("rcode = %s", res.RCode)
	}
}

// TestLossyRegistryRecoversViaRetry: seeded packet loss on the registry
// link is absorbed by the resolver's retransmission, so a
// deposited island still validates.
func TestLossyRegistryRecoversViaRetry(t *testing.T) {
	u := buildTestUniverse(t, nil)
	u.Net.SetFaultPlan(RegistryAddr, faults.Plan{Seed: 1, LossRate: 0.5})
	r := newResolver(t, u, true, true)
	island := dataset.SecureDomains()[dataset.SecureDomainsCount-dataset.SecureIslandCount]
	res, err := r.Resolve(island.Name, dns.TypeA)
	if err != nil {
		t.Fatalf("resolution failed under 50%% loss: %v", err)
	}
	if res.Status != resolver.StatusSecure || !res.UsedDLV {
		t.Fatalf("res = %+v, want secure via DLV", res)
	}
	if r.Stats().Failovers == 0 {
		t.Fatal("no retries recorded despite loss")
	}
}
