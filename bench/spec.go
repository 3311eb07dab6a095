package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the one list of workloads, metrics, units and
// bounds. The program reads it rather than repeat it, and refuses to print
// a result whose metric names differ from it.
type spec struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is not [A-Za-z0-9_.-]{1,64}", path, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q used twice", path, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			return nil, fmt.Errorf("%s: metric %q needs a unit and a direction", path, m.Name)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return nil, fmt.Errorf("%s: end-to-end metric %q needs a bound in (0, 0.25]", path, m.Name)
		}
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// attachUnits turns measured values into the printed form and checks that
// the names are exactly defs: a run that forgot a metric, or invented one,
// is a bug in the benchmark and must not pass for a result. A per-layer
// metric that a workload has no way to exercise is reported as 0 by the
// workload itself, never filled in here.
func attachUnits(values map[string]float64, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return nil, fmt.Errorf("metric names differ from BENCHMARK.json: missing [%s], unknown [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}
