// Command dlvmeasure regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	dlvmeasure -exp all -scale 100 -seed 1
//	dlvmeasure -exp fig8 -scale 1          # paper-scale (top-1M sweep)
//	dlvmeasure -exp table5
//
// -scale divides the paper's workload sizes: 1 reproduces the full
// magnitudes (minutes of runtime, gigabytes of simulated traffic), 100 runs
// the same sweeps at 1% size in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/experiment"
	"github.com/dnsprivacy/lookaside/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "dlvmeasure: %v\n", err)
		os.Exit(1)
	}
}

// experimentNames lists the -exp values in execution order for "all".
var experimentNames = []string{
	"table1", "table2", "fig8", "fig9", "order", "table3", "utility",
	"table4", "table5", "fig10", "fig11", "fig12", "deployment",
	"dictionary", "nsec3", "fleet", "registry-size", "qname-min",
	"phaseout", "policy", "padding", "enumeration", "adversary", "faults",
	"overload", "sweep",
}

func run(args []string) error {
	fs := flag.NewFlagSet("dlvmeasure", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run: all, "+strings.Join(experimentNames, ", "))
	seed := fs.Int64("seed", 1, "random seed (experiments are deterministic in it)")
	scale := fs.Int("scale", 100, "workload divisor: 1 = paper scale, 100 = 1% size")
	traceMinutes := fs.Int("trace-minutes", 0, "override Fig. 12 trace length (0 = 7h/scale)")
	population := fs.Int("population", 0,
		"single population size for -exp sweep, up to 1M (0 = the 10k/100k/1M ladder divided by -scale)")
	snapLoad := fs.String("snapshot-load", "",
		"-exp sweep: boot each point's infra cache from this warm-state snapshot (multi-point sweeps suffix .pop<N>; stale/corrupt/mismatched snapshots fall back to live warm-up)")
	snapSave := fs.String("snapshot-save", "",
		"-exp sweep: write each point's warmed infra cache to this snapshot file")
	checkpoint := fs.String("checkpoint", "",
		"-exp sweep: persist per-shard progress to this file after every finished shard and resume from it on restart")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent experiments and sweep points; results are identical at any setting")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	faultSeed := fs.Int64("faultseed", 0, "fault-schedule seed for -exp faults (0 = -seed)")
	loss := fs.Float64("loss", 0, "registry-link drop probability of the E17 loss condition (0 = 0.30)")
	dlvOutage := fs.Float64("dlv-outage", 0, "down fraction of each flap period in the E17 flap condition (0 = 0.5)")
	breaker := fs.Bool("breaker", true, "include the DLV circuit-breaker variants in -exp faults")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d); use 1 for a sequential run", *workers)
	}
	if *cpuProfile != "" {
		stop, err := profile.StartCPU(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := profile.WriteHeap(*memProfile); err != nil {
				fmt.Fprintf(os.Stderr, "dlvmeasure: %v\n", err)
			}
		}()
	}
	p := experiment.Params{Seed: *seed, Scale: *scale, Workers: *workers}
	knobs := experiment.FaultKnobs{
		FaultSeed:      *faultSeed,
		Loss:           *loss,
		OutageFraction: *dlvOutage,
		DisableBreaker: !*breaker,
	}
	// Snapshot/checkpoint fallbacks log to stderr so experiment stdout
	// stays byte-comparable across runs.
	sweepOpts := experiment.SweepOpts{
		SnapshotLoad: *snapLoad,
		SnapshotSave: *snapSave,
		Checkpoint:   *checkpoint,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dlvmeasure: "+format+"\n", args...)
		},
	}

	selected := map[string]bool{}
	if *exp == "all" {
		for _, name := range experimentNames {
			selected[name] = true
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}

	start := time.Now()
	ran := 0
	var jobs []experiment.Job

	// fig8 and fig9 share one sweep; when both are selected, run it once.
	if selected["fig8"] && selected["fig9"] {
		delete(selected, "fig8")
		delete(selected, "fig9")
		ran += 2
		jobs = append(jobs, experiment.Job{
			Name: "fig8+fig9",
			Run:  func() (fmt.Stringer, error) { return experiment.LeakCurve(p) },
		})
	}
	for _, name := range experimentNames {
		if !selected[name] {
			continue
		}
		delete(selected, name)
		ran++
		name := name
		jobs = append(jobs, experiment.Job{
			Name: name,
			Run:  func() (fmt.Stringer, error) { return dispatch(name, p, *traceMinutes, *population, knobs, sweepOpts) },
		})
	}
	if len(selected) > 0 {
		names := make([]string, 0, len(selected))
		for name := range selected {
			names = append(names, name)
		}
		return fmt.Errorf("unknown experiment(s): %s (valid: all, %s)",
			strings.Join(names, ", "), strings.Join(experimentNames, ", "))
	}

	// Experiments are independent (each builds its own universe); fan them
	// out and print the results in selection order.
	for _, r := range experiment.RunJobs(jobs, *workers) {
		if r.Err != nil {
			return fmt.Errorf("experiment %s: %w", r.Name, r.Err)
		}
		fmt.Println(r.Output)
		fmt.Printf("[%s finished in %v]\n\n", r.Name, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("ran %d experiment(s) in %v (seed=%d scale=%d workers=%d)\n",
		ran, time.Since(start).Round(time.Millisecond), *seed, *scale, *workers)
	return nil
}

// dispatch runs one named experiment. fig8/fig9 share a sweep but are
// dispatched separately so either can be regenerated alone.
func dispatch(name string, p experiment.Params, traceMinutes, population int, knobs experiment.FaultKnobs, sweepOpts experiment.SweepOpts) (fmt.Stringer, error) {
	switch name {
	case "table1":
		return experiment.Table1(), nil
	case "table2":
		return experiment.Table2()
	case "fig8":
		res, err := experiment.LeakCurve(p)
		if err != nil {
			return nil, err
		}
		return res.Fig8(), nil
	case "fig9":
		res, err := experiment.LeakCurve(p)
		if err != nil {
			return nil, err
		}
		return res.Fig9(), nil
	case "order":
		return experiment.OrderMatters(p, 3)
	case "table3":
		return experiment.Table3(p)
	case "utility":
		return experiment.Utility(p)
	case "table4":
		return experiment.Table4(p)
	case "table5":
		return experiment.Table5(p)
	case "fig10":
		res, err := experiment.Table5(p)
		if err != nil {
			return nil, err
		}
		return figList3(res.Fig10()), nil
	case "fig11":
		return experiment.Fig11(p)
	case "fig12":
		cfg := dataset.TraceConfig{}
		if traceMinutes > 0 {
			cfg = dataset.DefaultTraceConfig()
			cfg.Minutes = traceMinutes
			cfg.Scale = p.Scale
			cfg.Seed = p.Seed
		}
		return experiment.Fig12(p, cfg)
	case "deployment":
		return experiment.Deployment(p)
	case "dictionary":
		return experiment.Dictionary(p)
	case "nsec3":
		return experiment.NSEC3Ablation(p)
	case "fleet":
		return experiment.Fleet()
	case "registry-size":
		return experiment.RegistrySize(p)
	case "qname-min":
		return experiment.QNameMinimization(p)
	case "phaseout":
		return experiment.PhaseOut(p)
	case "policy":
		return experiment.PolicyAblation(p)
	case "padding":
		return experiment.Padding(p)
	case "enumeration":
		return experiment.Enumeration(p)
	case "adversary":
		return experiment.Adversary(p)
	case "faults":
		return experiment.Faults(p, knobs)
	case "overload":
		return experiment.Overload(p)
	case "sweep":
		var populations []int
		if population > 0 {
			populations = []int{population}
		}
		return experiment.SweepWithOpts(p, populations, sweepOpts)
	default:
		return nil, fmt.Errorf("no such experiment")
	}
}

// figList renders several figures as one stringer.
type figList []fmt.Stringer

// String implements fmt.Stringer.
func (f figList) String() string {
	var b strings.Builder
	for _, fig := range f {
		b.WriteString(fig.String())
	}
	return b.String()
}

// stringers adapt heterogenous panels.
func figList3[T fmt.Stringer](in []T) figList {
	out := make(figList, len(in))
	for i := range in {
		out[i] = in[i]
	}
	return out
}
