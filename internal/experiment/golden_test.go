package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree's output")

// goldenInputs are what the goldens pin: seed 1 at 1% scale, one worker.
var goldenInputs = Inputs{Params: Params{Seed: 1, Scale: 100, Workers: 1}}

// goldenCase is one golden file: a registry entry run at some inputs.
type goldenCase struct {
	name string
	exp  Experiment
	in   Inputs
}

// goldenCases walks the registry: every entry at goldenInputs but overload,
// whose numbers are wall-clock goodput over real sockets, plus the joint
// fig8+fig9 run and the sweep at 20,000 domains.
func goldenCases() []goldenCase {
	out := []goldenCase{{leakCurves.Name, leakCurves, goldenInputs}}
	for _, e := range Registry {
		if e.Name == "overload" {
			continue
		}
		out = append(out, goldenCase{e.Name, e, goldenInputs})
		if e.Name == "sweep" {
			in := goldenInputs
			in.Population = 20_000
			out = append(out, goldenCase{"sweep20k", e, in})
		}
	}
	return out
}

// results memoizes each golden case's result at goldenInputs, so the
// golden, invariance and paper-tolerance tests run each experiment once.
var results sync.Map

// result returns the named golden case's typed result.
func result(t *testing.T, name string) fmt.Stringer {
	t.Helper()
	if r, ok := results.Load(name); ok {
		return r.(fmt.Stringer)
	}
	for _, c := range goldenCases() {
		if c.name == name {
			r := runCase(t, c, c.in)
			results.Store(name, r)
			return r
		}
	}
	t.Fatalf("no golden case %q", name)
	return nil
}

func runCase(t *testing.T, c goldenCase, in Inputs) fmt.Stringer {
	t.Helper()
	r, err := c.exp.Run(in)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return r
}

// render is what dlvmeasure prints for a result, less its wall-clock lines.
func render(name string, r fmt.Stringer) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(Outcome{Name: name, Result: r}.String(), "\n") {
		if !strings.Contains(line, "finished in") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestGolden pins every experiment's printed output byte for byte.
// `go test ./internal/experiment -run Golden -update` rewrites the files.
func TestGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	cases := goldenCases()
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".txt")
		got := render(c.name, result(t, c.name))
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s (-update rewrites it); got:\n%s", c.name, path, got)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.txt")); len(files) != len(cases) {
		t.Errorf("%d golden files for %d cases", len(files), len(cases))
	}
}

// TestWorkersInvariance pins the fan-out contract: every golden case prints
// the same bytes at Workers 4 as at Workers 1, because every measurement
// point audits on its own shard.
func TestWorkersInvariance(t *testing.T) {
	for _, c := range goldenCases() {
		in := c.in
		in.Workers = 4
		if got, want := render(c.name, runCase(t, c, in)), render(c.name, result(t, c.name)); got != want {
			t.Errorf("%s differs across Workers:\nw=1:\n%s\nw=4:\n%s", c.name, want, got)
		}
	}
}

// TestExperimentDeterminism: TestGolden holds a seed's numbers fixed; a
// different seed must move them (they are measurements, not constants).
func TestExperimentDeterminism(t *testing.T) {
	a, err := LeakCurve(Params{Seed: 5, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LeakCurve(Params{Seed: 6, Scale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical measurements")
	}
}

// TestFig12ScaleDefault: Scale 0 means 100 for the trace as for every
// other experiment, not the paper's full query rate.
func TestFig12ScaleDefault(t *testing.T) {
	var perMinute [][]int
	for _, scale := range []int{0, 100} {
		res, err := Fig12(Params{Seed: 1, Scale: scale}, 2)
		if err != nil {
			t.Fatal(err)
		}
		perMinute = append(perMinute, res.PerMinute)
	}
	if !reflect.DeepEqual(perMinute[0], perMinute[1]) || perMinute[0][0] != 2134 {
		t.Errorf("per-minute rates at scale 0 / 100: %v", perMinute)
	}
}
