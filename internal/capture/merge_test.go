package capture

import (
	"reflect"
	"sync"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// TestMergeEqualsSingleAnalyzer pins the shard-merge semantics: merging
// per-shard analyzers must equal one analyzer that saw all the traffic —
// the report, the domain sets and every client's profile.
func TestMergeEqualsSingleAnalyzer(t *testing.T) {
	assertMergeEqualsSingle(t, false, []simnet.Event{
		plainEvent("example.com", dns.TypeA, simnet.RoleRoot),
		plainEvent("example.com", dns.TypeA, simnet.RoleTLD),
		dlvEvent("deposited.com.dlv.isc.org", dns.RCodeNoError),
		dlvEvent("leaked1.net.dlv.isc.org", dns.RCodeNXDomain),
		dlvEvent("leaked2.org.dlv.isc.org", dns.RCodeNXDomain),
		plainEvent("other.net", dns.TypeAAAA, simnet.RoleSLD),
		clientEvent("10.1.0.1", "deposited.com.dlv.isc.org", dns.RCodeNoError),
		clientEvent("10.1.0.1", "leaked1.net.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.2", "leaked1.net.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.1", "leaked1.net.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.2", "org.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.2", "deposited.com.dlv.isc.org", dns.RCodeNoError),
	})
}

// TestMergeEqualsSingleAnalyzerHashed is the hashed-registry variant: the
// merged analyzer holds the union of the shards' hash labels, counted once
// however many shards saw a label.
func TestMergeEqualsSingleAnalyzerHashed(t *testing.T) {
	assertMergeEqualsSingle(t, true, []simnet.Event{
		plainEvent("example.com", dns.TypeA, simnet.RoleRoot),
		clientEvent("10.1.0.1", "abcdef123.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.2", "abcdef123.dlv.isc.org", dns.RCodeNXDomain),
		clientEvent("10.1.0.1", "0badc0de.dlv.isc.org", dns.RCodeNoError),
		clientEvent("10.1.0.1", "abcdef123.dlv.isc.org", dns.RCodeNXDomain),
		dlvEvent("77aa55.dlv.isc.org", dns.RCodeNXDomain),
	})
}

// assertMergeEqualsSingle taps events into one analyzer and, alternately,
// into two shards merged into a third, and requires the two views to agree.
func assertMergeEqualsSingle(t *testing.T, hashed bool, events []simnet.Event) {
	t.Helper()
	single := newTestAnalyzer(hashed)
	for _, ev := range events {
		single.Tap(ev)
	}

	a, b := newTestAnalyzer(hashed), newTestAnalyzer(hashed)
	for i, ev := range events {
		if i%2 == 0 {
			a.Tap(ev)
		} else {
			b.Tap(ev)
		}
	}
	merged := newTestAnalyzer(hashed)
	merged.Merge(a)
	merged.Merge(b)

	if got, want := merged.Snapshot(), single.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged snapshot differs:\nmerged: %+v\nsingle: %+v", got, want)
	}
	if hashed && merged.Snapshot().HashedLabels != 3 {
		t.Errorf("merged hashed labels = %d, want 3", merged.Snapshot().HashedLabels)
	}
	if got, want := merged.ObservedDomains(), single.ObservedDomains(); !reflect.DeepEqual(got, want) {
		t.Errorf("observed domains differ: %v vs %v", got, want)
	}
	if got, want := merged.LeakedDomains(), single.LeakedDomains(); !reflect.DeepEqual(got, want) {
		t.Errorf("leaked domains differ: %v vs %v", got, want)
	}
	if got, want := merged.ClientProfiles(), single.ClientProfiles(); !reflect.DeepEqual(got, want) {
		t.Errorf("client profiles differ:\nmerged: %+v\nsingle: %+v", got, want)
	}
}

// TestMergeCase1Dominance: a domain seen as Case-2 in one shard and Case-1
// in another must merge to Case-1, matching live classification.
func TestMergeCase1Dominance(t *testing.T) {
	// In live capture a deposited domain can be recorded as Case-2 only if
	// observed before the deposit is visible; model it directly by tapping
	// the same name into analyzers with different deposit views.
	noDeposits := NewAnalyzer(Config{RegistryZone: registryZone, Deposits: fakeDeposits{}})
	noDeposits.Tap(dlvEvent("deposited.com.dlv.isc.org", dns.RCodeNXDomain))

	withDeposit := newTestAnalyzer(false)
	withDeposit.Tap(dlvEvent("deposited.com.dlv.isc.org", dns.RCodeNoError))

	merged := newTestAnalyzer(false)
	merged.Merge(noDeposits)
	merged.Merge(withDeposit)
	rep := merged.Snapshot()
	if rep.Case1Domains != 1 || rep.Case2Domains != 0 {
		t.Fatalf("cases = %d/%d, want Case-1 to dominate", rep.Case1Domains, rep.Case2Domains)
	}
	// Order must not matter.
	merged2 := newTestAnalyzer(false)
	merged2.Merge(withDeposit)
	merged2.Merge(noDeposits)
	rep2 := merged2.Snapshot()
	if rep2.Case1Domains != 1 || rep2.Case2Domains != 0 {
		t.Fatalf("reverse order cases = %d/%d, want 1/0", rep2.Case1Domains, rep2.Case2Domains)
	}
}

// TestConcurrentTap hammers one analyzer from many goroutines; run under
// -race it guards the Tap/Snapshot/Merge locking.
func TestConcurrentTap(t *testing.T) {
	a := newTestAnalyzer(false)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				a.Tap(dlvEvent("leaked1.net.dlv.isc.org", dns.RCodeNXDomain))
				a.Tap(plainEvent("example.com", dns.TypeA, simnet.RoleTLD))
			}
		}()
	}
	// Concurrent readers and a concurrent merge.
	other := newTestAnalyzer(false)
	other.Tap(dlvEvent("leaked2.org.dlv.isc.org", dns.RCodeNXDomain))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = a.Snapshot()
			_ = a.ObservedDomains()
		}
		a.Merge(other)
	}()
	wg.Wait()

	rep := a.Snapshot()
	if rep.Events != workers*perWorker*2+1 {
		t.Fatalf("Events = %d, want %d", rep.Events, workers*perWorker*2+1)
	}
	if rep.Case2Domains != 2 {
		t.Fatalf("Case2Domains = %d, want 2", rep.Case2Domains)
	}
}
