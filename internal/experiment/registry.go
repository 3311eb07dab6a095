package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/metrics"
	"github.com/dnsprivacy/lookaside/internal/par"
)

// Inputs are what one experiment run reads: the shared Params plus the
// command-line inputs that only some experiments use.
type Inputs struct {
	Params
	// TraceMinutes sets Fig. 12's trace length (0: the paper's 7 hours).
	TraceMinutes int
	// Population runs the sweep at this one size (0: the 10k/100k/1M
	// ladder divided by Scale).
	Population int
	Faults     FaultKnobs
}

// Experiment is one entry of the evaluation index (DESIGN.md §4).
type Experiment struct {
	// Name is the -exp value.
	Name string
	// ID is the experiment's number in DESIGN.md §4 and EXPERIMENTS.md.
	ID string
	// Artifact is what of the paper the experiment reproduces.
	Artifact string
	// Run computes the experiment's typed result.
	Run func(Inputs) (fmt.Stringer, error)
}

// Registry lists every experiment in the order "-exp all" runs them.
var Registry = []Experiment{
	{Name: "table1", ID: "E1", Artifact: "Table 1: resolver versions per environment",
		Run: func(Inputs) (fmt.Stringer, error) { return Table1(), nil }},
	{Name: "table2", ID: "E2", Artifact: "Table 2 + Figs. 4-7: installer defaults",
		Run: func(Inputs) (fmt.Stringer, error) { return Table2() }},
	{Name: "fig8", ID: "E3", Artifact: "Fig. 8: DLV queries / leaked domains vs. sample size",
		Run: view(LeakCurve, func(r *LeakCurveResult) fmt.Stringer { return r.Fig8() })},
	{Name: "fig9", ID: "E4", Artifact: "Fig. 9: proportion of leaked domains vs. sample size",
		Run: view(LeakCurve, func(r *LeakCurveResult) fmt.Stringer { return r.Fig9() })},
	{Name: "order", ID: "E5", Artifact: "§5.1: order matters across shuffles",
		Run: byParams(func(p Params) (*OrderMattersResult, error) { return OrderMatters(p, 3) })},
	{Name: "table3", ID: "E6", Artifact: "§5.2 + Table 3: secured domains sent to DLV", Run: byParams(Table3)},
	{Name: "utility", ID: "E7", Artifact: "§5.3: validation utility of DLV", Run: byParams(Utility)},
	{Name: "table4", ID: "E8", Artifact: "Table 4: queries by type", Run: byParams(Table4)},
	{Name: "table5", ID: "E9", Artifact: "Table 5: TXT-remedy overhead", Run: byParams(Table5)},
	{Name: "fig10", ID: "E9", Artifact: "Fig. 10: TXT-remedy overhead panels",
		Run: view(Table5, func(r *Table5Result) fmt.Stringer { return figures(r.Fig10()) })},
	{Name: "fig11", ID: "E10", Artifact: "Fig. 11: DLV vs TXT vs Z-bit", Run: byParams(Fig11)},
	{Name: "fig12", ID: "E11", Artifact: "Fig. 12: DITL trace overhead",
		Run: func(in Inputs) (fmt.Stringer, error) { return Fig12(in.Params, in.TraceMinutes) }},
	{Name: "deployment", ID: "E12", Artifact: "§6.1.1: DNSSEC deployment census", Run: byParams(Deployment)},
	{Name: "dictionary", ID: "E13", Artifact: "§6.2.4: dictionary attack on hashed DLV", Run: byParams(Dictionary)},
	{Name: "nsec3", ID: "E14", Artifact: "§7.3: NSEC vs NSEC3 registry", Run: byParams(NSEC3Ablation)},
	{Name: "fleet", ID: "E15", Artifact: "§5.2 survey: weighted fleet leakage",
		Run: func(Inputs) (fmt.Stringer, error) { return Fleet() }},
	{Name: "registry-size", ID: "E19", Artifact: "extension: registry size vs. Figs. 8-9", Run: byParams(RegistrySize)},
	{Name: "qname-min", ID: "E20", Artifact: "extension: RFC 7816 q-name minimization (§3)", Run: byParams(QNameMinimization)},
	{Name: "phaseout", ID: "E21", Artifact: "§7.3.2: ISC phase-out (empty registry)", Run: byParams(PhaseOut)},
	{Name: "policy", ID: "E22", Artifact: "§6.1.2: lax vs. signed-only look-aside", Run: byParams(PolicyAblation)},
	{Name: "padding", ID: "E23", Artifact: "§8.2 extension: RFC 7830 padding vs. size", Run: byParams(Padding)},
	{Name: "enumeration", ID: "E24", Artifact: "§7.3: registry enumeration by NSEC walk", Run: byParams(Enumeration)},
	{Name: "adversary", ID: "E16", Artifact: "extension: registry-vantage profiling (§6)", Run: byParams(Adversary)},
	{Name: "faults", ID: "E17", Artifact: "extension: retry amplification under faults (§8.4)",
		Run: func(in Inputs) (fmt.Stringer, error) { return Faults(in.Params, in.Faults) }},
	{Name: "overload", ID: "E18", Artifact: "extension: serving-tier goodput under overload", Run: byParams(Overload)},
	{Name: "sweep", ID: "E25", Artifact: "§5 at population scale: the million-domain sweep",
		Run: func(in Inputs) (fmt.Stringer, error) {
			var populations []int
			if in.Population > 0 {
				populations = []int{in.Population}
			}
			return Sweep(in.Params, populations)
		}},
}

// leakCurves runs Figs. 8 and 9 from one sweep, with the negative-caching
// diagnostics. It is not a registry name: Select puts it first, in place of
// fig8 and fig9, whenever both are chosen.
var leakCurves = Experiment{Name: "fig8+fig9", ID: "E3+E4",
	Artifact: "Figs. 8-9 from one run, with the negative-caching diagnostics", Run: byParams(LeakCurve)}

// view adapts a driver that reads Params alone and renders part of its
// result, so that one driver can back several entries.
func view[T any](run func(Params) (T, error), part func(T) fmt.Stringer) func(Inputs) (fmt.Stringer, error) {
	return func(in Inputs) (fmt.Stringer, error) {
		res, err := run(in.Params)
		if err != nil {
			return nil, err
		}
		return part(res), nil
	}
}

// byParams adapts a driver that reads Params alone.
func byParams[T fmt.Stringer](run func(Params) (T, error)) func(Inputs) (fmt.Stringer, error) {
	return view(run, func(r T) fmt.Stringer { return r })
}

// figures renders several panels back to back.
type figures []*metrics.Figure

// String implements fmt.Stringer.
func (f figures) String() string {
	var b strings.Builder
	for _, fig := range f {
		b.WriteString(fig.String())
	}
	return b.String()
}

// Select resolves an -exp value, "all" or a comma-separated list of names,
// to registry entries in registry order, with leakCurves in place of fig8
// and fig9 when both are chosen.
func Select(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
		want[e.Name] = spec == "all"
	}
	if spec != "all" {
		var unknown []string
		for _, name := range strings.Split(spec, ",") {
			name = strings.TrimSpace(name)
			if _, ok := want[name]; !ok {
				unknown = append(unknown, name)
			}
			want[name] = true
		}
		if len(unknown) > 0 {
			return nil, fmt.Errorf("unknown experiment(s): %s (valid: all, %s)",
				strings.Join(unknown, ", "), strings.Join(names, ", "))
		}
	}
	var out []Experiment
	if want["fig8"] && want["fig9"] {
		out = append(out, leakCurves)
		want["fig8"], want["fig9"] = false, false
	}
	for _, e := range Registry {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Outcome is one experiment's run.
type Outcome struct {
	Name string
	// Result is the experiment's typed result (nil on error).
	Result fmt.Stringer
	Err    error
	// Elapsed is real wall-clock time the run took (not simulated time).
	Elapsed time.Duration
}

// String renders an outcome as dlvmeasure prints it: the result, then a
// bracketed wall-clock line. Byte comparisons drop every line containing
// "finished in", so the rest must be deterministic in Inputs.
func (o Outcome) String() string {
	return fmt.Sprintf("%s\n[%s finished in %v]\n\n", o.Result, o.Name, o.Elapsed.Round(time.Millisecond))
}

// Run executes independent experiments on a pool in.Workers wide and
// returns their outcomes in input order. Each experiment builds its own
// universe, so they share nothing. Errors stay with their experiment: a
// failed one does not discard the others' results.
func Run(exps []Experiment, in Inputs) []Outcome {
	out := make([]Outcome, len(exps))
	_ = par.Each(len(exps), in.workers(), func(i int) error {
		start := time.Now()
		res, err := exps[i].Run(in)
		if err != nil {
			res = nil
		}
		out[i] = Outcome{Name: exps[i].Name, Result: res, Err: err, Elapsed: time.Since(start)}
		return nil
	})
	return out
}
