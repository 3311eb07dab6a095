package experiment

import (
	"testing"
	"time"
)

// TestOverloadSmoke runs a miniature E18 end to end over real sockets. It
// asserts structure plus the mechanism (the shedding rig actually sheds at
// 2x) rather than exact throughput, which is machine-dependent. The points
// scale at least 5k q/s, so the 2x point overloads the rig even when other
// tests starve the capacity probe of CPU.
func TestOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live-socket load test")
	}
	res, err := overloadWith(Params{Seed: 1, Scale: 100}, overloadOpts{
		clients:         50,
		capacityQueries: 2_000,
		multiples:       []float64{1, 2},
		maxInFlight:     32,
		queueTarget:     2 * time.Millisecond,
		window:          512,
		minCapacity:     5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityQPS <= 0 {
		t.Fatal("no capacity measured")
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	over := res.rowAt(2, true)
	if over == nil {
		t.Fatal("missing 2x shed-on row")
	}
	if over.Refused == 0 || over.ServerSheds == 0 {
		t.Errorf("shedding rig at 2x did not shed: %+v", over)
	}
	if res.GoodputRetention() <= 0 {
		t.Errorf("retention = %f", res.GoodputRetention())
	}
	if s := res.String(); s == "" {
		t.Error("empty rendering")
	}
}
