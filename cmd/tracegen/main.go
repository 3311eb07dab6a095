// Command tracegen generates the DITL-like recursive-resolver workload of
// §6.2.3 (minute, queries, cumulative), suitable for plotting Fig. 12a/12b,
// feeding external tools, or replaying against a live resolved with
// cmd/dlvload.
//
//	tracegen -minutes 420 -scale 1 > trace.csv
//	tracegen -minutes 420 -o trace.csv
//	dlvload -trace trace.csv ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/dnsprivacy/lookaside/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	minutes := fs.Int("minutes", 420, "trace duration in minutes (paper: 7h = 420)")
	seed := fs.Int64("seed", 1, "random seed")
	minRate := fs.Int("min-rate", 160_000, "minimum queries/minute")
	maxRate := fs.Int("max-rate", 360_000, "maximum queries/minute")
	scale := fs.Int("scale", 1, "rate divisor for small runs")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	trace, err := dataset.GenerateTrace(dataset.TraceConfig{
		Minutes: *minutes, Seed: *seed,
		MinRate: *minRate, MaxRate: *maxRate, Scale: *scale,
	})
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if err := dataset.WriteTrace(w, trace); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d minutes, %d total queries\n", *minutes, trace.Total())
	return nil
}
