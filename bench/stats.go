package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples, or 0 with none.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the middle of v (mean of the middle two when even), or 0
// with none. v is left untouched.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1, Q2, Q3 by the "exclusive" method Python's
// statistics.quantiles(v, n=4) uses, so the A/A table reads the same as the
// acceptance check that will be run over it. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's own counters; two of them
// bracket a phase.
type runtimeSample struct {
	allocs     uint64
	gcCPU      float64
	totalCPU   float64
	heapLive   uint64
	pauseCount []uint64
	pauseEdges []float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeSample{
		allocs:     s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		heapLive:   s[3].Value.Uint64(),
		pauseCount: append([]uint64(nil), h.Counts...),
		pauseEdges: h.Buckets,
	}
}

// runtimeDelta reports what the runtime did between two samples, over ops
// operations.
func runtimeDelta(before, after runtimeSample, ops int64, out map[string]float64) {
	out["runtime.allocs_per_op"], out["runtime.gc_cpu_share"] = 0, 0
	if ops > 0 {
		out["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / float64(ops)
	}
	// The runtime refreshes its CPU classes at GC cycles; a phase too short
	// to contain one reads as no CPU at all.
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	out["runtime.heap_live_mb"] = float64(after.heapLive) / (1 << 20)
	// The longest pause is the upper edge of the highest bucket that gained
	// a sample during the phase.
	maxPause := 0.0
	for i := range after.pauseCount {
		if after.pauseCount[i] > before.pauseCount[i] {
			if edge := after.pauseEdges[i+1]; !math.IsInf(edge, 1) {
				maxPause = edge
			} else {
				maxPause = after.pauseEdges[i]
			}
		}
	}
	out["runtime.gc_pause_max_ms"] = maxPause * 1e3
}
