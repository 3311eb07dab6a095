package main

import (
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/experiment"
)

func TestRunFastExperiments(t *testing.T) {
	if err := run([]string{"-exp", "table1,table2,fleet", "-scale", "2000"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunUnknownExperiment: an unknown name is refused before anything
// runs, and the message lists every registry name so the user can recover.
func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "table1,nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment(s): nope (valid: all, ") {
		t.Fatalf("err = %v", err)
	}
	for _, e := range experiment.Registry {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("error does not list %q: %v", e.Name, err)
		}
	}
}

// TestRegistryWiring: registry names are unique and every entry is complete.
func TestRegistryWiring(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiment.Registry {
		if seen[e.Name] || e.ID == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("entry %q: duplicate or incomplete", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestRunRefusesBadFlags: -scale 0 used to reach Fig. 12's trace as "full
// scale" (100x the queries of the default) while every other experiment
// read it as 100; it is now refused like -workers 0.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig12", "-scale", "0", "-trace-minutes", "2"},
		{"-exp", "table1", "-workers", "0"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
			t.Errorf("run %v: err = %v", args, err)
		}
	}
}
