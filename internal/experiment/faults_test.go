package experiment

import (
	"reflect"
	"testing"
)

// faultCell finds one grid cell by condition and breaker setting.
func faultCell(t *testing.T, r *FaultsResult, condition string, breaker bool) FaultCell {
	t.Helper()
	for _, c := range r.Cells {
		if c.Condition == condition && c.Breaker == breaker {
			return c
		}
	}
	t.Fatalf("no cell %s/breaker=%v", condition, breaker)
	return FaultCell{}
}

// TestFaultsExperiment requires the whole E17 result, unprinted fields
// included, to match at Workers 4, and checks its acceptance properties:
// without a breaker a full outage amplifies registry-visible sends at
// least 2x, and the breaker caps that by a large measured factor.
func TestFaultsExperiment(t *testing.T) {
	res := result(t, "faults").(*FaultsResult)
	par, err := Faults(Params{Seed: 1, Scale: 100, Workers: 4}, FaultKnobs{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, par) {
		t.Errorf("Faults differs across Workers:\nw=1: %+v\nw=4: %+v", res, par)
	}
	healthy := faultCell(t, res, "healthy", false)
	if healthy.RegistrySends == 0 {
		t.Fatal("healthy baseline saw no registry traffic; the workload is not exercising look-aside")
	}
	if healthy.Amplification != 1 {
		t.Errorf("healthy amplification = %.2f, want 1.00 (it is the baseline)", healthy.Amplification)
	}

	// The headline acceptance: hammering a dead registry at least doubles
	// what its link observes per lookup...
	outage := faultCell(t, res, "outage", false)
	if outage.Amplification < 2 {
		t.Errorf("outage/no-breaker amplification = %.2fx, want >= 2x", outage.Amplification)
	}
	// ...and the breaker caps it below even the healthy baseline (an open
	// circuit sheds consultations entirely).
	withBreaker := faultCell(t, res, "outage", true)
	if withBreaker.BreakerOpens == 0 {
		t.Error("outage/breaker never opened the circuit")
	}
	if withBreaker.SendsPerLookup*2 > outage.SendsPerLookup {
		t.Errorf("breaker sends/lookup = %.3f, want at most half of no-breaker %.3f",
			withBreaker.SendsPerLookup, outage.SendsPerLookup)
	}

	// The legacy resolver (no backoff budget, two blind rounds) also
	// amplifies during the outage — resilience without a breaker is not
	// the fix, the breaker is.
	var legacy *FaultAblationRow
	for i := range res.Ablation {
		if res.Ablation[i].Mode == "legacy" {
			legacy = &res.Ablation[i]
		}
	}
	if legacy == nil {
		t.Fatal("no legacy ablation row")
	}
	if legacy.Amplification < 2 {
		t.Errorf("legacy outage amplification = %.2fx, want >= 2x", legacy.Amplification)
	}

	// Forced truncation: without TCP fallback the registry's deposits are
	// unreadable (TC answers carry no records); fallback restores utility.
	if len(res.Truncation) != 2 {
		t.Fatalf("truncation rows = %d, want 2", len(res.Truncation))
	}
	off, on := res.Truncation[0], res.Truncation[1]
	if off.TCPFallbacks != 0 {
		t.Errorf("fallback-off row used TCP %d times", off.TCPFallbacks)
	}
	if on.TCPFallbacks == 0 {
		t.Error("fallback-on row never used TCP")
	}
	if on.Utility <= off.Utility {
		t.Errorf("utility: fallback on %.3f <= off %.3f, want recovery", on.Utility, off.Utility)
	}
}

// TestFaultsKnobs pins knob resolution and the DisableBreaker shape.
func TestFaultsKnobs(t *testing.T) {
	k := FaultKnobs{}.withDefaults(Params{Seed: 42})
	if k.FaultSeed != 42 || k.Loss != 0.30 || k.OutageFraction != 0.5 {
		t.Fatalf("defaults = %+v", k)
	}
	k = FaultKnobs{FaultSeed: 9, Loss: 0.1, OutageFraction: 3}.withDefaults(Params{Seed: 42})
	if k.FaultSeed != 9 || k.Loss != 0.1 || k.OutageFraction != 1 {
		t.Fatalf("overrides = %+v", k)
	}

	r, err := Faults(Params{Seed: 7, Scale: 20000}, FaultKnobs{DisableBreaker: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Cells {
		if c.Breaker {
			t.Fatalf("DisableBreaker still produced breaker cell %+v", c)
		}
	}
	if len(r.Ablation) != 2 {
		t.Fatalf("ablation rows = %d, want 2 without breaker", len(r.Ablation))
	}
}
