package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// traceRequests caps how many matched requests a trace file keeps; the
// layer metrics are computed over all of them before the cut.
const traceRequests = 10_000

// traceFile is what a traced run leaves in <out>/<workload>.trace.json.
type traceFile struct {
	Header   header             `json:"header"`
	Layers   map[string]float64 `json:"per_layer"`
	Requests []request          `json:"requests"`
}

// writeTrace writes the spans kept in memory during the run, once, at its
// end.
func writeTrace(cfg runConfig, workload string, layers map[string]float64, requests []request) error {
	if len(requests) > traceRequests {
		requests = requests[:traceRequests]
	}
	data, err := json.Marshal(traceFile{Header: newHeader(cfg), Layers: layers, Requests: requests})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, workload+".trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("trace written to %s (%d requests)", path, len(requests))
	return nil
}

// fillNotApplicable reports as 0 the per-layer metrics a workload has no
// way to exercise, named by prefix. Every traced run prints every per-layer
// metric; 0 is how one says "this layer is not on this workload's path".
func fillNotApplicable(values map[string]float64, defs []metricDef, prefixes ...string) {
	for _, d := range defs {
		if _, ok := values[d.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				values[d.Name] = 0
				break
			}
		}
	}
}
