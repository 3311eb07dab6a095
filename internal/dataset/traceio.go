package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// traceHeader opens a trace file. The file is the CSV cmd/tracegen writes:
// this header, then one "minute,queries,cumulative" row per minute. A trace
// is a few hundred counts (the paper's seven hours are 420 rows), so it is
// read whole.
const traceHeader = "minute,queries,cumulative"

// WriteTrace writes t as a trace file.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceHeader)
	var cum int64
	for i, q := range t.PerMinute {
		cum += int64(q)
		fmt.Fprintf(bw, "%d,%d,%d\n", i, q, cum)
	}
	return bw.Flush() // a bufio.Writer keeps its first error
}

// ReadTrace reads a trace file. The header and the cumulative column are
// optional and blank lines are skipped, but every row's minute must be its
// position in the trace and its count must be non-negative: a row that is
// dropped or misplaced would shift every later minute of the replay.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		row := strings.TrimSpace(sc.Text())
		if row == "" || (line == 1 && strings.HasPrefix(row, "minute,")) {
			continue
		}
		f := strings.Split(row, ",")
		if len(f) < 2 {
			return nil, fmt.Errorf("dataset: trace line %d: %q is not minute,queries", line, row)
		}
		if m, err := strconv.Atoi(f[0]); err != nil || m != len(t.PerMinute) {
			return nil, fmt.Errorf("dataset: trace line %d: minute %q, want %d", line, f[0], len(t.PerMinute))
		}
		q, err := strconv.Atoi(f[1])
		if err != nil || q < 0 {
			return nil, fmt.Errorf("dataset: trace line %d: query count %q is not a non-negative integer", line, f[1])
		}
		t.PerMinute = append(t.PerMinute, q)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading trace: %w", err)
	}
	return t, nil
}
