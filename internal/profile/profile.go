// Package profile implements the -cpuprofile and -memprofile diagnostic
// flags of the long-running commands (dlvmeasure, resolved).
package profile

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path; stop ends it and closes
// the file.
func StartCPU(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the start error is the one to report
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
	}, nil
}

// WriteHeap writes a heap profile to path after a forced collection, so the
// in-use figures are the live heap and not the garbage since the last cycle.
// Call it while whatever is to be profiled is still reachable.
func WriteHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
