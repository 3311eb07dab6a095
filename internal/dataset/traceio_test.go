package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	trace, err := GenerateTrace(TraceConfig{Minutes: 97, Seed: 5, MinRate: 1600, MaxRate: 3600})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("csv", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, trace); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerMinute, trace.PerMinute) {
			t.Fatalf("read back %v\nwrote     %v", got.PerMinute, trace.PerMinute)
		}
	})
}

func TestTraceReaderErrors(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"garbage count", "minute,queries,cumulative\n0,notanumber,0\n", "line 2"},
		{"one column", "minute,queries,cumulative\n0\n", "line 2"},
		// A negative count used to read as a skipped header, shifting every
		// later minute one slot earlier.
		{"negative count", "minute,queries,cumulative\n0,5,5\n1,-1,4\n2,7,11\n", "line 3"},
		{"minute gap", "minute,queries,cumulative\n0,5,5\n2,7,12\n", "line 3"},
		{"minute repeated", "0,5,5\n0,7,12\n", "line 2"},
		{"header not first", "0,5,5\nminute,queries,cumulative\n", "line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("accepted as %v", got.PerMinute)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

func TestTraceReaderAcceptsTracegenCSV(t *testing.T) {
	// The exact shape cmd/tracegen has always emitted, plus a trailing
	// blank line and a headerless two-column file.
	for _, in := range []string{
		"minute,queries,cumulative\n0,100,100\n1,250,350\n\n",
		"0,100\n1,250\n",
	} {
		got, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerMinute, []int{100, 250}) {
			t.Fatalf("%q parsed as %v", in, got.PerMinute)
		}
	}
}
