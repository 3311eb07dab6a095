package experiment

import (
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
)

// testParams keeps every experiment laptop-small.
var testParams = Params{Seed: 1, Scale: 200}

func TestLeakCurveShape(t *testing.T) {
	res, err := LeakCurve(testParams)
	if err != nil {
		t.Fatalf("LeakCurve: %v", err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("too few points: %d", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.LeakedDomains == 0 {
			t.Errorf("point %d: no leakage at all", i)
		}
		if pt.Proportion <= 0 || pt.Proportion > 1 {
			t.Errorf("point %d: proportion %f out of range", i, pt.Proportion)
		}
		if i > 0 {
			prev := res.Points[i-1]
			if pt.N <= prev.N {
				t.Errorf("sizes not increasing: %d then %d", prev.N, pt.N)
			}
			// Fig. 8: leaked count grows with sample size.
			if pt.LeakedDomains < prev.LeakedDomains {
				t.Errorf("leak count decreased: %d@%d then %d@%d",
					prev.LeakedDomains, prev.N, pt.LeakedDomains, pt.N)
			}
		}
	}
	// Fig. 9: the proportion at the largest size is below the smallest
	// (negative caching decay).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Proportion >= first.Proportion {
		t.Errorf("no decay: %.3f@%d vs %.3f@%d",
			first.Proportion, first.N, last.Proportion, last.N)
	}
	if last.Suppressed == 0 {
		t.Error("no suppression at the largest size")
	}
	out := res.String()
	for _, want := range []string{"Fig. 8", "Fig. 9", "proportion"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
}

func TestOrderMatters(t *testing.T) {
	res, err := OrderMatters(Params{Seed: 3, Scale: 1000}, 3)
	if err != nil {
		t.Fatalf("OrderMatters: %v", err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if tr.Leaked <= 0 || tr.Leaked > res.N {
			t.Errorf("trial %d: leaked %d out of range", tr.Shuffle, tr.Leaked)
		}
	}
	if !strings.Contains(res.String(), "Order matters") {
		t.Error("rendering broken")
	}
}

func TestTable1And2(t *testing.T) {
	t1 := Table1()
	if len(t1.Environments) != 8 {
		t.Fatalf("table1 rows = %d", len(t1.Environments))
	}
	if !strings.Contains(t1.String(), "9.10.3") {
		t.Error("table1 rendering missing version")
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 3 || len(t2.Issues) == 0 {
		t.Fatalf("table2 shape: %d rows, %d issues", len(t2.Rows), len(t2.Issues))
	}
	if !strings.Contains(t2.String(), "dnssec-lookaside") {
		t.Error("table2 rendering missing compliance issue")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	res, err := Table3(testParams)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		measured := row.ChainedLeaked > 0
		if measured != row.PredictedLeak {
			t.Errorf("%s: measured leak %t != predicted %t (chained leaked %d)",
				row.Scenario.Name, measured, row.PredictedLeak, row.ChainedLeaked)
		}
		switch row.Scenario.Name {
		case "apt-get", "yum", "unbound":
			// Correct anchor: the 40 chained domains validate; the 5
			// islands still go to the registry (§5.2's observation).
			if row.IslandsLeaked == 0 {
				t.Errorf("%s: islands did not reach the registry", row.Scenario.Name)
			}
			if row.SecureCount < dataset.SecureDomainsCount-dataset.SecureIslandCount {
				t.Errorf("%s: only %d secure answers", row.Scenario.Name, row.SecureCount)
			}
		case "apt-get†", "manual":
			if row.ChainedLeaked == 0 {
				t.Errorf("%s: broken anchor should leak chained domains", row.Scenario.Name)
			}
			// Without a root anchor nothing chains on-path; only the
			// deposited islands can still validate — through DLV itself.
			if row.SecureCount > dataset.SecureDepositedCount {
				t.Errorf("%s: %d secure answers without an anchor (max %d via DLV)",
					row.Scenario.Name, row.SecureCount, dataset.SecureDepositedCount)
			}
		}
	}
}

func TestTable4Shape(t *testing.T) {
	res, err := Table4(testParams)
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		a := row.Counts[dns.TypeA]
		if a < row.Domains {
			t.Errorf("row %d: A queries %d below domain count %d", i, a, row.Domains)
		}
		if row.Counts[dns.TypeDS] == 0 {
			t.Errorf("row %d: no DS queries from the validator", i)
		}
		aaaa := row.Counts[dns.TypeAAAA]
		if aaaa == 0 || aaaa >= a {
			t.Errorf("row %d: AAAA count %d implausible vs A %d", i, aaaa, a)
		}
		if i > 0 && a <= res.Rows[i-1].Counts[dns.TypeA] {
			t.Errorf("A counts not growing: %d then %d", res.Rows[i-1].Counts[dns.TypeA], a)
		}
	}
}

func TestTable5OverheadShape(t *testing.T) {
	res, err := Table5(testParams)
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's RT ratio runs from 18.68 % (100 domains) to 29.20 % (100k).
	// The band is that range widened by 9 points: at equal sizes E9 deviates
	// by up to 5.7 points (EXPERIMENTS.md: 12.94 % vs 18.68 % at 100 — the
	// fixed registry-key walk weighs more in a small simulated run), and
	// testParams' 50- and 500-domain rows fall between the paper's.
	const rtLo, rtHi = 18.68 - 9, 29.20 + 9
	for _, row := range res.Rows {
		if row.Baseline.Queries == 0 || row.Baseline.Bytes == 0 || row.Baseline.ResponseTime <= 0 {
			t.Fatalf("empty baseline: %+v", row.Baseline)
		}
		over := row.Overhead().ResponseTime
		if ratio := 100 * over.Seconds() / row.Baseline.ResponseTime.Seconds(); over <= 0 || ratio < rtLo || ratio > rtHi {
			t.Errorf("n=%d: RT overhead %v on baseline %v (%.2f%%), want a ratio in [%.2f%%, %.2f%%]",
				row.Domains, over, row.Baseline.ResponseTime, ratio, rtLo, rtHi)
		}
		// The remedy must reduce Case-2 leakage — that's its purpose.
		if row.RemedyLeaked >= row.BaselineLeaked {
			t.Errorf("n=%d: remedy did not reduce leakage (%d vs %d)",
				row.Domains, row.RemedyLeaked, row.BaselineLeaked)
		}
	}
	figs := res.Fig10()
	if len(figs) != 3 {
		t.Fatalf("fig10 panels = %d", len(figs))
	}
	if !strings.Contains(res.String(), "ratio") {
		t.Error("table5 rendering broken")
	}
}

func TestFig11Comparison(t *testing.T) {
	res, err := Fig11(testParams)
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	// Z-bit must be cheaper than TXT in queries (no extra packets).
	if res.ZBit.Queries > res.TXT.Queries {
		t.Errorf("zbit queries %d > txt %d", res.ZBit.Queries, res.TXT.Queries)
	}
	// In response time TXT is the upper bound and the Z bit, riding in
	// headers that are sent anyway, is essentially free (paper Fig. 11).
	if res.TXT.ResponseTime <= res.DLV.ResponseTime {
		t.Errorf("txt response time %v not above plain DLV's %v", res.TXT.ResponseTime, res.DLV.ResponseTime)
	}
	if d := (res.ZBit.ResponseTime - res.DLV.ResponseTime).Abs(); res.DLV.ResponseTime <= 0 || d > res.DLV.ResponseTime/20 {
		t.Errorf("zbit response time %v not within 5%% of plain DLV's %v", res.ZBit.ResponseTime, res.DLV.ResponseTime)
	}
	// Both remedies must cut leakage relative to plain DLV.
	if res.TXTLeaked >= res.DLVLeaked || res.ZBitLeaked >= res.DLVLeaked {
		t.Errorf("leaked: dlv=%d txt=%d zbit=%d", res.DLVLeaked, res.TXTLeaked, res.ZBitLeaked)
	}
	if !strings.Contains(res.String(), "zbit") {
		t.Error("fig11 rendering broken")
	}
}

func TestFig12Trace(t *testing.T) {
	cfg := dataset.TraceConfig{Minutes: 12, Seed: 5, MinRate: 1600, MaxRate: 3600, Scale: 1}
	res, err := Fig12(Params{Seed: 5, Scale: 500}, cfg)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(res.PerMinute) != 12 || len(res.BaselineBytes) != 12 {
		t.Fatalf("series lengths: %d, %d", len(res.PerMinute), len(res.BaselineBytes))
	}
	for i, v := range res.PerMinute {
		if v < 1600 || v > 3600 {
			t.Errorf("minute %d rate %d out of band", i, v)
		}
		if i > 0 && res.BaselineBytes[i] < res.BaselineBytes[i-1] {
			t.Errorf("cumulative baseline decreased at %d", i)
		}
	}
	last := len(res.PerMinute) - 1
	if res.BaselineBytes[last] == 0 {
		t.Fatal("no baseline bytes")
	}
	over := float64(res.OverheadBytes[last]) / float64(res.BaselineBytes[last])
	if over < 0 || over > 0.5 {
		t.Errorf("overhead share %.3f implausible (paper: ~1%%–10%%)", over)
	}
	if !strings.Contains(res.String(), "Fig. 12") {
		t.Error("fig12 rendering broken")
	}
}

func TestUtilitySplit(t *testing.T) {
	res, err := Utility(testParams)
	if err != nil {
		t.Fatalf("Utility: %v", err)
	}
	if res.DLVQueries == 0 || res.NXDomain == 0 {
		t.Fatalf("degenerate utility: %+v", res)
	}
	// Case-2 must dominate (the paper: ~98.8% leakage).
	if res.LeakagePct < 0.5 {
		t.Errorf("leakage share %.2f too low", res.LeakagePct)
	}
	if res.NoErrorPct+res.LeakagePct > 1.001 {
		t.Errorf("shares exceed 1: %f + %f", res.NoErrorPct, res.LeakagePct)
	}
}

func TestDeploymentCensus(t *testing.T) {
	res, err := Deployment(Params{Seed: 1, Scale: 20}) // 50k domains
	if err != nil {
		t.Fatalf("Deployment: %v", err)
	}
	c := res.Census
	signedPct := float64(c.Signed) / float64(c.Size)
	if signedPct < 0.005 || signedPct > 0.05 {
		t.Errorf("signed share %.4f outside the paper's sub-percent regime", signedPct)
	}
	if c.Islands == 0 || c.Chained == 0 || c.Deposited == 0 {
		t.Errorf("degenerate census: %+v", c)
	}
	// §6.1.1 ordering: edu signs more than com.
	if c.PerTLDSigned["edu"] <= c.PerTLDSigned["com"] {
		t.Errorf("edu (%.4f) should sign more than com (%.4f)",
			c.PerTLDSigned["edu"], c.PerTLDSigned["com"])
	}
	if !strings.Contains(res.String(), "census") {
		t.Error("rendering broken")
	}
}

func TestDictionaryAttack(t *testing.T) {
	res, err := Dictionary(testParams)
	if err != nil {
		t.Fatalf("Dictionary: %v", err)
	}
	if len(res.Trials) != 4 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	for i, tr := range res.Trials {
		if i > 0 && tr.Inverted < res.Trials[i-1].Inverted {
			t.Errorf("inversions should grow with coverage")
		}
	}
	full := res.Trials[len(res.Trials)-1]
	if full.Inverted != full.Observed {
		t.Errorf("full dictionary should invert everything: %d/%d", full.Inverted, full.Observed)
	}
	if res.SecondsPerName <= 0 {
		t.Error("brute-force model degenerate")
	}
}

func TestNSEC3AblationIncreasesLeakage(t *testing.T) {
	res, err := NSEC3Ablation(testParams)
	if err != nil {
		t.Fatalf("NSEC3Ablation: %v", err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	nsec, nsec3 := res.Points[0], res.Points[1]
	if nsec3.DLVQueries <= nsec.DLVQueries {
		t.Errorf("NSEC3 should increase registry queries: %d vs %d",
			nsec3.DLVQueries, nsec.DLVQueries)
	}
	if nsec3.Suppressed != 0 {
		t.Errorf("NSEC3 mode cannot suppress, got %d", nsec3.Suppressed)
	}
	if nsec.Suppressed == 0 {
		t.Error("NSEC mode should suppress some queries")
	}
}

func TestFleetEstimate(t *testing.T) {
	res, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if res.SecuredLeakShare <= 0 || res.SecuredLeakShare >= 1 {
		t.Errorf("leak share %.3f out of range", res.SecuredLeakShare)
	}
	if !strings.Contains(res.String(), "survey") {
		t.Error("rendering broken")
	}
}

func TestRegistrySizeAblation(t *testing.T) {
	res, err := RegistrySize(Params{Seed: 1, Scale: 500})
	if err != nil {
		t.Fatalf("RegistrySize: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Deposits < res.Points[i-1].Deposits {
			t.Errorf("deposits should be non-decreasing in rate: %+v", res.Points)
			break
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Deposits <= first.Deposits {
		t.Errorf("highest rate should deposit more than lowest: %+v", res.Points)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	// Same seed, same result — the property every recorded number in
	// EXPERIMENTS.md depends on.
	p := Params{Seed: 5, Scale: 2000}
	a, err := LeakCurve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LeakCurve(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
	// A different seed changes the outcome (the numbers are measurements,
	// not constants).
	c, err := LeakCurve(Params{Seed: 6, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i] != c.Points[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical measurements")
	}
}
