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

	"github.com/dnsprivacy/lookaside/internal/experiment"
	"github.com/dnsprivacy/lookaside/internal/profile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "dlvmeasure: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dlvmeasure", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiments to run: all, or a comma-separated list (an unknown name lists the valid ones)")
	seed := fs.Int64("seed", 1, "random seed (experiments are deterministic in it)")
	scale := fs.Int("scale", 100, "workload divisor: 1 = paper scale, 100 = 1% size")
	traceMinutes := fs.Int("trace-minutes", 0, "override Fig. 12 trace length in minutes (0 = the paper's 7 hours)")
	population := fs.Int("population", 0,
		"single population size for -exp sweep, up to 1M (0 = the 10k/100k/1M ladder divided by -scale)")
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
	if *scale < 1 {
		return fmt.Errorf("-scale must be >= 1 (got %d); 1 is paper scale", *scale)
	}
	exps, err := experiment.Select(*exp)
	if err != nil {
		return err
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
	in := experiment.Inputs{
		Params:       experiment.Params{Seed: *seed, Scale: *scale, Workers: *workers},
		TraceMinutes: *traceMinutes,
		Population:   *population,
		Faults: experiment.FaultKnobs{
			FaultSeed:      *faultSeed,
			Loss:           *loss,
			OutageFraction: *dlvOutage,
			DisableBreaker: !*breaker,
		},
	}

	// Experiments are independent (each builds its own universe); fan them
	// out and print the results in registry order.
	start := time.Now()
	for _, o := range experiment.Run(exps, in) {
		if o.Err != nil {
			return fmt.Errorf("experiment %s: %w", o.Name, o.Err)
		}
		fmt.Print(o)
	}
	ran := 0
	for _, e := range exps {
		ran += strings.Count(e.Name, "+") + 1 // fig8+fig9 runs two names
	}
	fmt.Printf("ran %d experiment(s) in %v (seed=%d scale=%d workers=%d)\n",
		ran, time.Since(start).Round(time.Millisecond), *seed, *scale, *workers)
	return nil
}
