// Command bench is the repository's one benchmark: three serving workloads
// over real loopback sockets (serve_hot, serve_cold, serve_storm) and the
// paper's 100k-domain sweep (sweep_100k), each in a fresh process, with
// end-to-end metrics from an unhooked run and a per-layer ledger from a
// traced run plus single-goroutine probes. Every layer is measured from
// outside, through its public functions. BENCHMARK.json at the repository
// root names the workloads, metrics, units and bounds; README.md explains
// them.
//
//	bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -all            # every workload, own subprocess each
//	bash bench/run.sh -all --trace 1  # the per-layer ledger
//	bash bench/run.sh -aa 10          # A/A: 10 full sets, spreads vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// commit is stamped by run.sh (-ldflags -X); "unknown" outside a git checkout.
var commit = "unknown"

// runConfig is one run's arguments.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks populations and warm-up counts. Only bench_test.go sets
	// it: there is no flag, so every printed result is at full size.
	scale  float64
	outDir string
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := runConfig{scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs: name stream and population")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured phase (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced run and the layer probes and prints the per-layer metrics; 0 prints the end-to-end metrics")
	fs.StringVar(&cfg.outDir, "out", "out", "directory for trace files and probe scratch")
	specPath := fs.String("spec", "../BENCHMARK.json", "path to BENCHMARK.json")
	all := fs.Bool("all", false, "run every workload, each in its own subprocess")
	aa := fs.Int("aa", 0, "A/A mode: run N full sets of this binary and compare them with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	cfg.trace = *trace != 0
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	switch {
	case *aa > 0:
		return runAA(sp, cfg, *specPath, *aa)
	case *all:
		return runAll(sp, cfg, *specPath)
	}
	return runOne(sp, cfg)
}

// header is the width a run was recorded at; runs of different width must
// never be compared.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	UDPShards  int     `json:"udp_shards"`
	Workers    int     `json:"serve_workers"`
	Gate       string  `json:"gate"`
}

func newHeader(cfg runConfig) header {
	h := header{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
		UDPShards: udpShards, Workers: serveWorkers, Gate: "off",
	}
	if w, ok := serveWorkloads[cfg.workload]; ok && w.gate != nil {
		h.Gate = fmt.Sprintf("max-inflight=%d exec=%d queue-target=%s", w.gate.MaxInFlight, w.gate.Exec, w.gate.QueueTarget)
	}
	return h
}

// runOne runs one workload in this process and prints its result as the
// last line of standard output.
func runOne(sp *spec, cfg runConfig) int {
	head, _ := json.Marshal(newHeader(cfg))
	logf("header %s", head)
	res, err := runWorkload(sp, cfg)
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload dispatches one run and turns its outcome into the printed
// form. A run that could not finish, or whose metric names are not exactly
// those of BENCHMARK.json, is an error; a run that finished but failed a
// correctness gate is a result with Correct false.
func runWorkload(sp *spec, cfg runConfig) (result, error) {
	known := false
	for _, name := range sp.workloadNames() {
		known = known || name == cfg.workload
	}
	if !known {
		return result{}, fmt.Errorf("unknown workload %q; BENCHMARK.json names: %s", cfg.workload, strings.Join(sp.workloadNames(), ", "))
	}
	var o *outcome
	var err error
	defs := sp.EndToEnd
	if cfg.trace {
		defs = sp.PerLayer
	}
	switch w, serving := serveWorkloads[cfg.workload]; {
	case serving && cfg.trace:
		o, err = w.trace(cfg, sp)
	case serving:
		o, err = w.run(cfg)
	case cfg.workload == "sweep_100k" && cfg.trace:
		o, err = traceSweep(cfg, sp)
	case cfg.workload == "sweep_100k":
		o, err = runSweep(cfg)
	default:
		err = fmt.Errorf("workload %q is in BENCHMARK.json but not in the program", cfg.workload)
	}
	if err != nil {
		return result{}, err
	}
	metrics, err := attachUnits(o.values, defs)
	if err != nil {
		return result{}, err
	}
	for _, p := range o.problems {
		logf("INCORRECT: %s", p)
	}
	return result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}
