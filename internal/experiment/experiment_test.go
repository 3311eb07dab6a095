package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
)

// paperRow compares one measured number of a golden run (seed 1, 1% scale)
// with the paper: the test fails unless |measured - paper| <= tol. A shape
// claim ("grows", "decays", "leaks under exactly these configurations") is
// a row whose measured value is 1 when the claim holds, against paper 1.
type paperRow struct {
	exp    string // registry entry whose result the row reads
	row    string
	paper  float64
	tol    float64
	reason string // why the tolerance is what it is
	got    func(fmt.Stringer) float64
}

// Reasons shared by several rows; EXPERIMENTS.md has the measurements
// behind each.
const (
	exact  = "transcribed or derived from the paper's own data; exact"
	shape  = "the paper's qualitative claim; must hold at every scale"
	spans  = "leak counts depend on the registry's NSEC-span density, which grows with the universe: the top-100 point leaks 38 here (94 deposits), 82 at 10% scale, 96 at paper scale"
	bind   = "the simulated resolver retries less and caches more than 2015-era BIND: absolute counts run 45-60% of the paper's, orderings match"
	txtRT  = "the fixed registry-key walk weighs more in small simulated runs; the ratios grow with workload as in the paper (27.7% / 30.0% at 1k / 10k at 10% scale)"
	census = "deployment rates are about 2x the paper's 2015 values by design, so the registry has a realistic span structure; the TLD ordering is the paper's"
)

var paperTable = []paperRow{
	{"table1", "environments", 8, 0, exact, on(func(r *Table1Result) float64 { return float64(len(r.Environments)) })},
	{"table2", "installers", 3, 0, exact, on(func(r *Table2Result) float64 { return float64(len(r.Rows)) })},
	{"table2", "defaults contradicting the BIND ARM", 3, 0, exact, on(func(r *Table2Result) float64 { return float64(len(r.Issues)) })},

	{"fig8+fig9", "leaked domains > 0 and non-decreasing in sample size", 1, 0, shape, on(func(r *LeakCurveResult) float64 {
		return holds(r.Points[0].LeakedDomains > 0 && slices.IsSortedFunc(r.Points, func(a, b LeakPoint) int { return a.LeakedDomains - b.LeakedDomains }))
	})},
	{"fig8+fig9", "leaked of the top 100", 84, 50, spans, on(func(r *LeakCurveResult) float64 { return float64(leakAt(r, 100).LeakedDomains) })},
	{"fig8+fig9", "leaked proportion decays from smallest to largest sample", 1, 0, shape, on(func(r *LeakCurveResult) float64 {
		return holds(r.Points[len(r.Points)-1].Proportion < r.Points[0].Proportion)
	})},
	{"fig8+fig9", "leaked proportion at the largest sample", 0.068, 0.05,
		"the paper's 6.8% is at 1M; this run tops out at 10k (2.4%); 19.7% at 100k at 10% scale. The floor follows the span count and the registry's negative TTL",
		on(func(r *LeakCurveResult) float64 { return r.Points[len(r.Points)-1].Proportion })},
	{"fig8+fig9", "look-asides suppressed at the largest sample > 0", 1, 0, shape, on(func(r *LeakCurveResult) float64 {
		return holds(r.Points[len(r.Points)-1].Suppressed > 0)
	})},

	{"order", "shuffles", 3, 0, exact, on(func(r *OrderMattersResult) float64 { return float64(len(r.Trials)) })},
	{"order", "mean leaked proportion", 0.81, 0.4, spans, on(func(r *OrderMattersResult) float64 {
		sum := 0.0
		for _, tr := range r.Trials {
			sum += tr.Proportion
		}
		return sum / float64(len(r.Trials))
	})},
	{"order", "spread between shuffles (points)", 7, 6,
		"the paper's 82/84/77%; 50/48/46% here and 90/88/88% at 10% scale: nonzero at every scale, a few points wide",
		on(func(r *OrderMattersResult) float64 {
			lo, hi := 1.0, 0.0
			for _, tr := range r.Trials {
				lo, hi = math.Min(lo, tr.Proportion), math.Max(hi, tr.Proportion)
			}
			return 100 * (hi - lo)
		})},

	{"table3", "configurations whose measured leak is the paper's Yes/No", 5, 0, exact, on(func(r *Table3Result) float64 {
		n := 0
		for _, row := range r.Rows {
			n += int(holds((row.ChainedLeaked > 0) == row.PredictedLeak))
		}
		return float64(n)
	})},
	{"table3", "correct-anchor configurations whose islands still reach the registry", 3, 0, "§5.2's observation; exact",
		table3(func(row Table3Row, correct bool) bool { return correct && row.IslandsLeaked > 0 })},
	{"table3", "correct-anchor configurations with every chained and deposited domain secure", 3, 0,
		"40 chained domains validate on-path and the 2 deposited islands through DLV; exact",
		table3(func(row Table3Row, correct bool) bool {
			return correct && row.SecureCount == dataset.SecureDomainsCount-dataset.SecureIslandCount+dataset.SecureDepositedCount
		})},
	{"table3", "broken-anchor configurations securing only the deposited islands", 2, 0,
		"without a root anchor nothing chains on-path; only the islands deposited in DLV validate; exact",
		table3(func(row Table3Row, correct bool) bool {
			return !correct && row.ChainedLeaked > 0 && row.SecureCount == dataset.SecureDepositedCount
		})},

	{"utility", "leakage share of registry answers", 0.988, 0.45,
		"per query, not per domain: the exact-name negative cache removes the repeats that fill the paper's denominator, and at 200 domains 1 of 5 answers is a deposit; the domain-level conclusion (Case-2 dominates) holds",
		on(func(r *UtilityResult) float64 { return r.LeakagePct })},
	{"utility", "no-error + leakage shares", 1, 1e-9, "the two answer classes partition the registry's answers", on(func(r *UtilityResult) float64 {
		return r.NoErrorPct + r.LeakagePct
	})},

	{"table4", "A >= domains, 0 < AAAA < A, DS > 0, A growing, at every size", 1, 0, shape, on(func(r *Table4Result) float64 {
		ok := true
		for i, row := range r.Rows {
			a := row.Counts[dns.TypeA]
			ok = ok && a >= row.Domains && row.Counts[dns.TypeAAAA] > 0 && row.Counts[dns.TypeAAAA] < a && row.Counts[dns.TypeDS] > 0
			ok = ok && (i == 0 || a > r.Rows[i-1].Counts[dns.TypeA])
		}
		return holds(ok)
	})},
	{"table4", "A queries at 100 domains", 467, 260, bind, table4(func(c map[dns.Type]int) float64 { return float64(c[dns.TypeA]) })},
	{"table4", "DS per A at 100 domains", 221.0 / 467, 0.1, "one DS per validated delegation, as in the paper", table4(func(c map[dns.Type]int) float64 {
		return ratio(c[dns.TypeDS], c[dns.TypeA])
	})},
	{"table4", "AAAA per A at 100 domains", 243.0 / 467, 0.35, bind, table4(func(c map[dns.Type]int) float64 {
		return ratio(c[dns.TypeAAAA], c[dns.TypeA])
	})},

	{"table5", "response-time ratio at 100 domains (%)", 18.68, 9, txtRT, table5(1, func(row Table5Row) float64 {
		return 100 * row.Overhead().ResponseTime.Seconds() / row.Baseline.ResponseTime.Seconds()
	})},
	{"table5", "response-time ratio at 1k domains (%)", 23.41, 9, txtRT, table5(2, func(row Table5Row) float64 {
		return 100 * row.Overhead().ResponseTime.Seconds() / row.Baseline.ResponseTime.Seconds()
	})},
	{"table5", "MB ratio at 1k domains (%)", 8.46, 3, "7.5% / 10.1% at 1k / 10k at 10% scale", table5(2, func(row Table5Row) float64 {
		return 100 * float64(row.Overhead().Bytes) / float64(row.Baseline.Bytes)
	})},
	{"table5", "queries ratio at 1k domains (%)", 13.54, 5, "16.6% / 18.1% at 1k / 10k at 10% scale", table5(2, func(row Table5Row) float64 {
		return 100 * ratio(row.Overhead().Queries, row.Baseline.Queries)
	})},
	{"table5", "Case-2 domains leaked under the remedy, all sizes", 0, 0, "the remedy keeps unsigned names off the registry; exact", on(func(r *Table5Result) float64 {
		n := 0
		for _, row := range r.Rows {
			n += row.RemedyLeaked
		}
		return float64(n)
	})},

	{"fig11", "TXT response time over plain DLV", 1.1868, 0.1, "the paper's Table 5 ratio at 100 domains; " + txtRT, on(func(r *Fig11Result) float64 {
		return r.TXT.ResponseTime.Seconds() / r.DLV.ResponseTime.Seconds()
	})},
	{"fig11", "Z-bit response time over plain DLV", 1, 0.05, "the Z bit rides in headers that are sent anyway", on(func(r *Fig11Result) float64 {
		return r.ZBit.ResponseTime.Seconds() / r.DLV.ResponseTime.Seconds()
	})},
	{"fig11", "Z-bit queries over plain DLV", 1, 0.05, "the Z bit adds no packets", on(func(r *Fig11Result) float64 { return ratio(r.ZBit.Queries, r.DLV.Queries) })},
	{"fig11", "Case-2 domains leaked under TXT and Z-bit", 0, 0, "both remedies keep unsigned names off the registry; exact", on(func(r *Fig11Result) float64 {
		return float64(r.TXTLeaked + r.ZBitLeaked)
	})},

	{"fig12", "trace minutes", 420, 0, exact, on(func(r *Fig12Result) float64 { return float64(len(r.PerMinute)) })},
	{"fig12", "minutes inside the paper's 160k-360k q/min band, divided by Scale", 1, 0, shape, on(func(r *Fig12Result) float64 {
		in := 0
		for _, v := range r.PerMinute {
			in += int(holds(v >= 1600 && v <= 3600))
		}
		return float64(in) / float64(len(r.PerMinute))
	})},
	{"fig12", "cumulative baseline bytes never decrease", 1, 0, shape, on(func(r *Fig12Result) float64 {
		return holds(r.BaselineBytes[0] > 0 && slices.IsSorted(r.BaselineBytes))
	})},
	{"fig12", "TXT overhead share of baseline bytes", 0.01, 0.2,
		"the paper calls its 1.2 GB small next to serving the trace; the share falls as the population grows: 5.6% at 10% scale, 18.5% here",
		on(func(r *Fig12Result) float64 {
			last := len(r.PerMinute) - 1
			return float64(r.OverheadBytes[last]) / float64(r.BaselineBytes[last])
		})},

	{"deployment", "com signed-SLD rate", 0.0043, 0.01, census, on(func(r *DeploymentResult) float64 { return r.Census.PerTLDSigned["com"] })},
	{"deployment", "edu signed-SLD rate", 0.0089, 0.03, census, on(func(r *DeploymentResult) float64 { return r.Census.PerTLDSigned["edu"] })},
	{"deployment", "edu over com signed rate", 0.89 / 0.43, 1, census, on(func(r *DeploymentResult) float64 {
		return r.Census.PerTLDSigned["edu"] / r.Census.PerTLDSigned["com"]
	})},
	{"deployment", "deposited share of SLDs", 0.012, 0.005, "calibrated to §5.3's ≈1.2% No-error share", on(func(r *DeploymentResult) float64 {
		return ratio(r.Census.Deposited, r.Census.Size)
	})},
	{"deployment", "chained, island and deposited zones all present", 1, 0, shape, on(func(r *DeploymentResult) float64 {
		return holds(r.Census.Chained > 0 && r.Census.Islands > 0 && r.Census.Deposited > 0)
	})},

	{"dictionary", "labels inverted at 10% dictionary coverage", 0.1, 0.005, "a dictionary of X% of the names inverts X% of the labels; exact up to rounding",
		on(func(r *DictionaryResult) float64 { return ratio(r.Trials[1].Inverted, r.Trials[1].Observed) })},
	{"dictionary", "labels inverted at full coverage", 1, 0, "the hash hides nothing from an attacker who can enumerate candidates; exact",
		on(func(r *DictionaryResult) float64 {
			return ratio(r.Trials[len(r.Trials)-1].Inverted, r.Trials[len(r.Trials)-1].Observed)
		})},
	{"dictionary", "brute-force seconds per label", 35, 0, "the paper's model: 350M names at 10M hash/s; exact", on(func(r *DictionaryResult) float64 { return r.SecondsPerName })},

	{"nsec3", "NSEC3 registry queries per domain", 1, 0.1, "the paper: with NSEC3 every resolver query triggers a registry query; within 10% of one per domain",
		on(func(r *NSEC3Result) float64 { return ratio(r.Points[1].DLVQueries, r.Domains) })},
	{"nsec3", "look-asides suppressed under NSEC3", 0, 0, "NSEC3 denials allow no aggressive caching; exact", on(func(r *NSEC3Result) float64 { return float64(r.Points[1].Suppressed) })},
	{"nsec3", "NSEC suppresses look-asides and sends fewer registry queries", 1, 0, shape, on(func(r *NSEC3Result) float64 {
		return holds(r.Points[0].Suppressed > 0 && r.Points[0].DLVQueries < r.Points[1].DLVQueries)
	})},

	{"fleet", "survey respondents", 56, 0, exact, on(func(r *FleetResult) float64 { return float64(r.Survey.Respondents) })},
	{"fleet", "ISC DLV users", 0.625, 0.001, exact, on(func(r *FleetResult) float64 { return ratio(r.Survey.UseISCDLV, r.Survey.Respondents) })},
	{"fleet", "operators leaking even secured domains", 0.089 + 0.304/4, 0.001,
		"the paper publishes the marginals; this row is their product with Table 3's leak predicates (manual defaults plus a quarter of package defaults)",
		on(func(r *FleetResult) float64 { return r.SecuredLeakShare })},

	{"registry-size", "deposits never fall as the deposit rate rises, and the top rate deposits more", 1, 0,
		"extension with no paper value: it explains Figs. 8-9's magnitudes", on(func(r *RegistrySizeResult) float64 {
			return holds(r.Points[len(r.Points)-1].Deposits > r.Points[0].Deposits &&
				slices.IsSortedFunc(r.Points, func(a, b RegistrySizePoint) int { return a.Deposits - b.Deposits }))
		})},
}

// on adapts a row's reader to its experiment's typed result.
func on[T any](f func(T) float64) func(fmt.Stringer) float64 {
	return func(s fmt.Stringer) float64 { return f(s.(T)) }
}

func holds(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// ratio divides counts; a zero denominator yields NaN or Inf, which fails
// every row.
func ratio(a, b int) float64 { return float64(a) / float64(b) }

func leakAt(r *LeakCurveResult, n int) LeakPoint {
	for _, pt := range r.Points {
		if pt.N == n {
			return pt
		}
	}
	return LeakPoint{}
}

// table3 counts the Table 3 configurations for which f holds; correct is
// whether the configuration's anchors are right (the paper's "No" columns).
func table3(f func(row Table3Row, correct bool) bool) func(fmt.Stringer) float64 {
	return on(func(r *Table3Result) float64 {
		n := 0
		for _, row := range r.Rows {
			n += int(holds(f(row, !row.PredictedLeak)))
		}
		return float64(n)
	})
}

// table4 reads the query-type counts of Table 4's 100-domain row.
func table4(f func(map[dns.Type]int) float64) func(fmt.Stringer) float64 {
	return on(func(r *Table4Result) float64 { return f(r.Rows[1].Counts) })
}

// table5 reads one size row of Table 5 (0: 50, 1: 100, 2: 1k domains).
func table5(i int, f func(Table5Row) float64) func(fmt.Stringer) float64 {
	return on(func(r *Table5Result) float64 { return f(r.Rows[i]) })
}

// checkPaper evaluates the paper rows of the named registry entries.
func checkPaper(t *testing.T, exps ...string) {
	t.Helper()
	for _, row := range paperTable {
		if !slices.Contains(exps, row.exp) {
			continue
		}
		if got := row.got(result(t, row.exp)); !(math.Abs(got-row.paper) <= row.tol) {
			t.Errorf("%s: %s = %.4g, paper %.4g ± %.4g (%s)", row.exp, row.row, got, row.paper, row.tol, row.reason)
		}
	}
}

// TestPaperTableCoversE1ToE15: every paper experiment has a row, and every
// row names a golden case and the reason for its tolerance.
func TestPaperTableCoversE1ToE15(t *testing.T) {
	covered := map[string]bool{}
	cases := goldenCases()
	for _, row := range paperTable {
		i := slices.IndexFunc(cases, func(c goldenCase) bool { return c.name == row.exp })
		if i < 0 || row.reason == "" {
			t.Errorf("%s / %s: unknown experiment or no reason", row.exp, row.row)
			continue
		}
		for _, id := range strings.Split(cases[i].exp.ID, "+") {
			covered[id] = true
		}
	}
	for i := 1; i <= 15; i++ {
		if !covered[fmt.Sprintf("E%d", i)] {
			t.Errorf("no paper row for E%d", i)
		}
	}
}

// One test per paper experiment, each a selection of paperTable.

func TestTable1And2(t *testing.T)                    { checkPaper(t, "table1", "table2") }
func TestLeakCurveShape(t *testing.T)                { checkPaper(t, "fig8+fig9") }
func TestOrderMatters(t *testing.T)                  { checkPaper(t, "order") }
func TestTable3MatchesPaper(t *testing.T)            { checkPaper(t, "table3") }
func TestUtilitySplit(t *testing.T)                  { checkPaper(t, "utility") }
func TestTable4Shape(t *testing.T)                   { checkPaper(t, "table4") }
func TestTable5OverheadShape(t *testing.T)           { checkPaper(t, "table5") }
func TestFig11Comparison(t *testing.T)               { checkPaper(t, "fig11") }
func TestFig12Trace(t *testing.T)                    { checkPaper(t, "fig12") }
func TestDeploymentCensus(t *testing.T)              { checkPaper(t, "deployment") }
func TestDictionaryAttack(t *testing.T)              { checkPaper(t, "dictionary") }
func TestNSEC3AblationIncreasesLeakage(t *testing.T) { checkPaper(t, "nsec3") }
func TestFleetEstimate(t *testing.T)                 { checkPaper(t, "fleet") }
func TestRegistrySizeAblation(t *testing.T)          { checkPaper(t, "registry-size") }
