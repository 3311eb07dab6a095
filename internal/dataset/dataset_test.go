package dataset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

func TestAlexaLikeBasics(t *testing.T) {
	pop, err := AlexaLike(PopulationConfig{Size: 5000, Seed: 1})
	if err != nil {
		t.Fatalf("AlexaLike: %v", err)
	}
	if len(pop.Domains) != 5000 {
		t.Fatalf("size = %d", len(pop.Domains))
	}
	seen := map[dns.Name]bool{}
	for i, d := range pop.Domains {
		if seen[d.Name] {
			t.Fatalf("duplicate domain %s", d.Name)
		}
		seen[d.Name] = true
		if int(d.Rank) != i+1 {
			t.Fatalf("rank mismatch at %d: %d", i, d.Rank)
		}
		if d.Name.LabelCount() != 2 {
			t.Fatalf("domain %s is not an SLD", d.Name)
		}
		if d.DSInParent && !d.Signed {
			t.Fatalf("%s has DS without being signed", d.Name)
		}
		if d.InDLV && !d.Signed {
			t.Fatalf("%s deposited without being signed", d.Name)
		}
	}
	if _, err := AlexaLike(PopulationConfig{Size: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := AlexaLike(PopulationConfig{Size: maxPopulation + 1}); err == nil {
		t.Fatal("a size past the name arena's offsets accepted")
	}
}

func TestAlexaLikeDeterminism(t *testing.T) {
	a, err := AlexaLike(PopulationConfig{Size: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AlexaLike(PopulationConfig{Size: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Domains, b.Domains) {
		t.Fatal("same seed produced different populations")
	}
	c, err := AlexaLike(PopulationConfig{Size: 500, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Domains, c.Domains) {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestDeploymentRatesCalibration(t *testing.T) {
	pop, err := AlexaLike(PopulationConfig{Size: 200_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := pop.Census()
	signedPct := float64(c.Signed) / float64(c.Size)
	// The paper's regime: sub-2% SLD signing.
	if signedPct < 0.008 || signedPct > 0.03 {
		t.Errorf("signed share %.4f outside calibration", signedPct)
	}
	depositPct := float64(c.Deposited) / float64(c.Size)
	// §5.3 anchor: ≈1.2% of queried domains find deposits.
	if depositPct < 0.006 || depositPct > 0.02 {
		t.Errorf("deposit share %.4f outside calibration", depositPct)
	}
	if c.Islands <= c.Chained/4 {
		t.Errorf("island/chained balance off: %d islands, %d chained", c.Islands, c.Chained)
	}
	// com must dominate the population.
	comCount := 0
	for _, d := range pop.Domains {
		if d.TLD() == "com" {
			comCount++
		}
	}
	if share := float64(comCount) / float64(c.Size); share < 0.4 || share > 0.6 {
		t.Errorf("com share %.3f, want ≈0.5", share)
	}
}

func TestDefaultRatesWithDeposit(t *testing.T) {
	for _, target := range []float64{0.002, 0.01, 0.05} {
		rates := DefaultRatesWithDeposit(target)
		pop, err := AlexaLike(PopulationConfig{Size: 100_000, Seed: 4, Rates: rates})
		if err != nil {
			t.Fatal(err)
		}
		c := pop.Census()
		got := float64(c.Deposited) / float64(c.Size)
		if got < target*0.5 || got > target*1.7 {
			t.Errorf("target %.3f: measured deposit rate %.4f", target, got)
		}
	}
	if r := DefaultRatesWithDeposit(5.0); r.SLDSigned > 1 {
		t.Error("rate not clamped")
	}
}

func TestTopAndShuffled(t *testing.T) {
	pop, err := AlexaLike(PopulationConfig{Size: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	top := pop.Top(100)
	if len(top) != 100 || top[0].Rank != 1 {
		t.Fatalf("Top broken: %d, rank %d", len(top), top[0].Rank)
	}
	if got := pop.Top(5000); len(got) != 300 {
		t.Fatalf("oversized Top = %d", len(got))
	}
	sh := pop.Shuffled(100, 77)
	if len(sh) != 100 {
		t.Fatalf("Shuffled = %d", len(sh))
	}
	same := true
	for i := range sh {
		if sh[i].Name != top[i].Name {
			same = false
		}
	}
	if same {
		t.Fatal("shuffle did not permute")
	}
	// Same shuffle seed reproduces; the original Top is untouched.
	sh2 := pop.Shuffled(100, 77)
	if !reflect.DeepEqual(sh, sh2) {
		t.Fatal("shuffle not deterministic")
	}
	if pop.Top(1)[0].Rank != 1 {
		t.Fatal("Top mutated by Shuffled")
	}
}

func TestLookup(t *testing.T) {
	pop, err := AlexaLike(PopulationConfig{Size: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := pop.Lookup(pop.Domains[7].Name)
	if !ok || d.Rank != 8 {
		t.Fatalf("Lookup = %+v, %t", d, ok)
	}
	if _, ok := pop.Lookup(dns.MustName("not-there.example")); ok {
		t.Fatal("phantom lookup hit")
	}
}

func TestSecureDomainsShape(t *testing.T) {
	sd := SecureDomains()
	if len(sd) != SecureDomainsCount {
		t.Fatalf("len = %d", len(sd))
	}
	islands, chained, deposited := 0, 0, 0
	seen := map[dns.Name]bool{}
	for _, d := range sd {
		if !d.Signed {
			t.Fatalf("%s not signed", d.Name)
		}
		if seen[d.Name] {
			t.Fatalf("duplicate %s", d.Name)
		}
		seen[d.Name] = true
		if d.IsIsland() {
			islands++
		} else {
			chained++
		}
		if d.InDLV {
			deposited++
			if !d.IsIsland() {
				t.Fatalf("%s deposited but chained", d.Name)
			}
		}
	}
	if islands != SecureIslandCount || deposited != SecureDepositedCount {
		t.Fatalf("islands=%d deposited=%d", islands, deposited)
	}
	if chained != SecureDomainsCount-SecureIslandCount {
		t.Fatalf("chained=%d", chained)
	}
}

func TestGenerateTrace(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Scale = 100
	trace, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.PerMinute) != 420 {
		t.Fatalf("minutes = %d", len(trace.PerMinute))
	}
	lo, hi := cfg.MinRate/cfg.Scale, cfg.MaxRate/cfg.Scale
	for i, v := range trace.PerMinute {
		if v < lo || v > hi {
			t.Fatalf("minute %d rate %d outside [%d,%d]", i, v, lo, hi)
		}
	}
	cum := trace.Cumulative()
	if cum[len(cum)-1] != trace.Total() {
		t.Fatal("cumulative disagrees with total")
	}
	// Paper scale check: the full trace totals ≈92.7M over 7h.
	full, err := GenerateTrace(DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tot := full.Total(); tot < 60_000_000 || tot > 160_000_000 {
		t.Errorf("full-scale total %d outside the paper's magnitude", tot)
	}
}

func TestGenerateTraceValidation(t *testing.T) {
	if _, err := GenerateTrace(TraceConfig{Minutes: 0, MinRate: 1, MaxRate: 2}); err == nil {
		t.Fatal("zero minutes accepted")
	}
	if _, err := GenerateTrace(TraceConfig{Minutes: 5, MinRate: 10, MaxRate: 5}); err == nil {
		t.Fatal("inverted band accepted")
	}
}

func TestTraceDeterminismProperty(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := TraceConfig{Minutes: 30, Seed: seed, MinRate: 100, MaxRate: 300, Scale: 1}
		a, err := GenerateTrace(cfg)
		if err != nil {
			return false
		}
		b, err := GenerateTrace(cfg)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(a.PerMinute, b.PerMinute)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleNames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx := SampleNames(rng, 1000, 500)
	if len(idx) != 500 {
		t.Fatalf("len = %d", len(idx))
	}
	counts := map[int]int{}
	for _, i := range idx {
		if i < 0 || i >= 1000 {
			t.Fatalf("index %d out of range", i)
		}
		counts[i]++
	}
	// Zipf: rank 0 must dominate.
	if counts[0] < counts[500] {
		t.Error("no popularity skew in samples")
	}
}

func TestSurveyMarginals(t *testing.T) {
	s := Survey()
	if s.Respondents != 56 || s.PackageDefaults != 17 || s.UseISCDLV != 35 {
		t.Fatalf("survey = %+v", s)
	}
	if s.PackageDefaults+s.ManualDefaults+s.OwnConfig != s.Respondents {
		t.Fatal("marginals do not sum to n")
	}
	pkg, man, own, isc := s.Fractions()
	if pkg+man+own < 0.99 || pkg+man+own > 1.01 {
		t.Fatal("fractions do not sum to 1")
	}
	if isc < 0.6 || isc > 0.65 {
		t.Fatalf("ISC share %.3f", isc)
	}
}

// TestDomainTLD holds TLD, which reads the label off Name, to the label
// each domain was generated under: the last label as dns.Name parses it,
// one of the population's TLDs, and for the secured list the label its
// index picks. Generated ranks are positions plus one, and TLD allocates
// nothing.
func TestDomainTLD(t *testing.T) {
	pop, err := AlexaLike(PopulationConfig{Size: 100_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tlds := make(map[string]bool, len(pop.TLDs))
	for _, tld := range pop.TLDs {
		tlds[tld.Label] = true
	}
	for i := range pop.Domains {
		d := &pop.Domains[i]
		labels := d.Name.Labels()
		if got := d.TLD(); got != labels[len(labels)-1] || !tlds[got] {
			t.Fatalf("%s: TLD() = %q, generated under %q", d.Name, got, labels[len(labels)-1])
		}
		if int(d.Rank) != i+1 {
			t.Fatalf("%s at position %d has rank %d", d.Name, i, d.Rank)
		}
	}
	for i, d := range SecureDomains() {
		if want := []string{"edu", "net", "org"}[i%3]; d.TLD() != want {
			t.Errorf("%s: TLD() = %q, want %q", d.Name, d.TLD(), want)
		}
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _ = pop.Domains[7].TLD() }); n != 0 {
			t.Errorf("TLD() allocates %v times", n)
		}
	}
}

// TestDomainLayout pins Domain at 24 bytes: a population holds one per
// name, so every byte a new field adds costs 1 MB at the paper's 1M.
func TestDomainLayout(t *testing.T) {
	if size := unsafe.Sizeof(Domain{}); size != 24 {
		t.Errorf("Domain is %d bytes, pinned at 24: %+.1f MB at 1,000,000 domains",
			size, (float64(size)-24)*1e6/(1<<20))
	}
}
