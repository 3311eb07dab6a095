package main

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
)

func TestRunProducesCSV(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-minutes", "5", "-min-rate", "100", "-max-rate", "200", "-scale", "1"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 { // header + 5 minutes
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "minute,queries,cumulative" {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != 2 {
			t.Fatalf("bad row %q", line)
		}
	}
}

func TestRunRejectsBadBand(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-min-rate", "100", "-max-rate", "50"}, &buf); err == nil {
		t.Fatal("inverted band accepted")
	}
	if err := run([]string{"-minutes", "0"}, &buf); err == nil {
		t.Fatal("zero minutes accepted")
	}
}

func TestRunRoundTrip(t *testing.T) {
	// What tracegen writes, dataset.ReadTrace reads back as the generated
	// per-minute series.
	var buf strings.Builder
	err := run([]string{"-minutes", "30", "-seed", "9", "-min-rate", "1000", "-max-rate", "2000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reading back: %v", err)
	}
	want, err := dataset.GenerateTrace(dataset.TraceConfig{Minutes: 30, Seed: 9, MinRate: 1000, MaxRate: 2000, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PerMinute, want.PerMinute) {
		t.Fatalf("read back %v\ngenerated %v", got.PerMinute, want.PerMinute)
	}
}

func TestRunWritesFile(t *testing.T) {
	path := t.TempDir() + "/trace.csv"
	var buf strings.Builder
	err := run([]string{"-minutes", "10", "-o", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes to stdout despite -o", buf.Len())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := dataset.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerMinute) != 10 {
		t.Errorf("minutes = %d", len(got.PerMinute))
	}
}

func TestRunDeterminism(t *testing.T) {
	var a, b strings.Builder
	args := []string{"-minutes", "10", "-seed", "3"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different traces")
	}
}
