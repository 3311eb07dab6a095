package experiment

import (
	"reflect"
	"strings"
	"testing"
)

func TestAdversary(t *testing.T) {
	res, err := Adversary(Params{Seed: 7, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("scenarios = %d, want 4", len(res.Scenarios))
	}
	for _, sc := range res.Scenarios {
		if sc.Profile.MeanItems <= 0 {
			t.Errorf("%s: empty profiles", sc.Name)
		}
		switch sc.Name {
		case "plain-dlv", "hashed-dlv", "qname-min":
			// Renaming or truncating identifiers does not hide the clients:
			// the registry still observes every one of them.
			if sc.Profile.Clients != res.Clients {
				t.Errorf("%s: registry saw %d clients, want %d", sc.Name, sc.Profile.Clients, res.Clients)
			}
		case "dlv-aware-txt":
			// The in-band remedy keeps per-domain traffic off the registry.
			if sc.Profile.Clients >= res.Clients {
				t.Errorf("dlv-aware-txt: registry saw %d of %d clients, want fewer",
					sc.Profile.Clients, res.Clients)
			}
		}
	}
	link := map[string]float64{}
	for _, sc := range res.Scenarios {
		link[sc.Name] = sc.Link.Fraction
	}
	// Hashing preserves profile shape, so linkability survives the remedy.
	if link["hashed-dlv"] < link["qname-min"] {
		t.Errorf("hashed-dlv linkability %v below qname-min %v", link["hashed-dlv"], link["qname-min"])
	}
	if len(res.Inversions) != len(res.Coverages) {
		t.Fatalf("inversions = %d, want %d", len(res.Inversions), len(res.Coverages))
	}
	// The full-coverage dictionary inverts every hashed label; the popular
	// band must be nearly fully recovered already at partial coverage.
	full := res.Inversions[len(res.Inversions)-1]
	if full.Rate != 1 {
		t.Errorf("full-dictionary rate = %v, want 1", full.Rate)
	}
	if first := res.Inversions[0]; first.TopRate < 0.9 {
		t.Errorf("top-band recovery at %.0f%% coverage = %v, want > 0.9",
			res.Coverages[0]*100, first.TopRate)
	}
	out := res.String()
	for _, want := range []string{"plain-dlv", "hashed-dlv", "qname-min", "dlv-aware-txt", "dictionary inversion"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAdversaryWorkersInvariance(t *testing.T) {
	seq, err := Adversary(Params{Seed: 7, Scale: 2000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Adversary(Params{Seed: 7, Scale: 2000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("results differ across worker counts:\nseq: %+v\npar: %+v", seq, par)
	}
}
