package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// child runs one workload in a fresh process of this same binary and
// returns its result and the header it logged.
func child(cfg runConfig, specPath string) (result, header, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, header{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-out", cfg.outDir, "-spec", specPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	runErr := cmd.Run()

	var res result
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, header{}, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return result{}, header{}, fmt.Errorf("%s: last line of output is not a result: %w", cfg.workload, err)
	}
	var head header
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "bench: header "); ok {
			if err := json.Unmarshal([]byte(rest), &head); err != nil {
				return result{}, header{}, fmt.Errorf("%s: unreadable header: %w", cfg.workload, err)
			}
		}
	}
	if runErr != nil {
		return res, head, fmt.Errorf("%s: %w", cfg.workload, runErr)
	}
	return res, head, nil
}

// width is the part of a header two runs must share to be compared.
type width struct {
	goMaxProcs, nproc, udpShards int
	goVersion                    string
}

func (h header) width() width {
	return width{h.GoMaxProcs, h.NProc, h.UDPShards, h.GoVersion}
}

// runAll runs every workload of the spec, each in its own subprocess, and
// prints one JSON object: workload name to result.
func runAll(sp *spec, cfg runConfig, specPath string) int {
	start := time.Now()
	results := map[string]result{}
	code := 0
	for _, name := range sp.workloadNames() {
		c := cfg
		c.workload = name
		res, _, err := child(c, specPath)
		if err != nil {
			logf("%v", err)
			code = 1
		}
		results[name] = res
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		logf("encoding results: %v", err)
		return 1
	}
	fmt.Println(string(out))
	logf("total wall of -all (trace=%t): %.1fs for %d workloads", cfg.trace, time.Since(start).Seconds(), len(results))
	return code
}

// runAA is the A/A mode: n full sets of untraced runs of this one binary,
// set k at seed+k, then for every (metric, workload) the median, the
// quartiles and the spread (Q3-Q1 over the median) the acceptance check
// will compute. Nothing changed between the sets, so every spread is noise;
// an end-to-end metric whose noise is wider than its own bound cannot gate
// anything and fails the mode, setup_s included.
func runAA(sp *spec, cfg runConfig, specPath string, n int) int {
	if n < 2 {
		logf("-aa needs at least 2 sets")
		return 2
	}
	start := time.Now()
	cfg.trace = false
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	var first *width
	for set := 0; set < n; set++ {
		for _, name := range sp.workloadNames() {
			c := cfg
			c.workload = name
			c.seed = cfg.seed + int64(set)
			res, head, err := child(c, specPath)
			if err != nil {
				logf("set %d: %v", set+1, err)
				return 1
			}
			if w := head.width(); first == nil {
				first = &w
			} else if w != *first {
				logf("set %d %s ran at width %+v, earlier runs at %+v: refusing to compare", set+1, name, w, *first)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range res.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
		}
	}
	fmt.Printf("A/A over %d sets (seeds %d..%d, %gs measured, gomaxprocs=%d nproc=%d udp_shards=%d %s, commit %s)\n\n",
		n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, first.goMaxProcs, first.nproc, first.udpShards, first.goVersion, commit)
	fmt.Println("| workload | metric | unit | median | Q1 | Q3 | spread (Q3-Q1)/median | max rel. dev. | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, name := range sp.workloadNames() {
		for _, def := range sp.EndToEnd {
			vals := values[name][def.Name]
			q1, q2, q3 := quartiles(vals)
			spread := (q3 - q1) / q2
			maxDev := 0.0
			for _, v := range vals {
				if d := math.Abs(v-q2) / q2; d > maxDev {
					maxDev = d
				}
			}
			verdict := "ok"
			if spread > def.Bound {
				verdict = "TOO NOISY"
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				name, def.Name, def.Unit, q2, q1, q3, 100*spread, 100*maxDev, 100*def.Bound, verdict)
		}
	}
	logf("total wall of -aa %d: %.1fs", n, time.Since(start).Seconds())
	return code
}
