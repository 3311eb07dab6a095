package zone

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// FuzzSynthIndexOrder pins the prefix-keyed sort of the synthesized owner
// index to plain bytes.Compare order of the keys. The input is a
// comma-separated list of owner names below the apex com.; invalid and
// repeated names are dropped. Aux carries each name's input position, so
// the check also sees every kind and aux travel with its own key. Run with
// `go test -fuzz=FuzzSynthIndexOrder ./internal/zone`.
func FuzzSynthIndexOrder(f *testing.F) {
	// Keys equal in the 8 bytes after the common prefix com\0.
	f.Add("abcdefghij,abcdefghik,abcdefgh,b")
	// Keys shorter than 8 bytes after the common prefix.
	f.Add("ab,abc,a,b,zz,a-b")
	// A key that is a byte-prefix of another (a name and its child).
	f.Add("ab,x.ab,ab-c,y.x.ab,abcdefgh.ab")
	// Keys sharing more than the apex: the common prefix is longer.
	f.Add("mmmmmmmmmmmm1,mmmmmmmmmmmm2,mmmmmmmmmmmm")

	f.Fuzz(func(t *testing.T, list string) {
		apex := dns.MustName("com")
		var entries []SynthEntry
		seen := map[dns.Name]bool{}
		for _, s := range strings.Split(list, ",") {
			name, err := dns.MakeName(s + ".com")
			if err != nil || seen[name] || !name.IsSubdomainOf(apex) || name == apex {
				continue
			}
			seen[name] = true
			entries = append(entries, SynthEntry{Name: name, Kind: SynthCut, Aux: uint32(len(entries))})
		}
		z, err := New(Config{Apex: apex, Serial: 1})
		if err != nil {
			t.Fatal(err)
		}
		z.AttachSynth(&mapSynth{entries: entries})
		z.mu.Lock()
		z.synthEnsureLocked()
		z.mu.Unlock()

		want := make([][]byte, len(entries))
		for i, e := range entries {
			want[i] = dns.AppendSortKey(nil, e.Name)
		}
		slices.SortFunc(want, bytes.Compare)
		if len(z.synth.kind) != len(want) {
			t.Fatalf("index holds %d entries, want %d", len(z.synth.kind), len(want))
		}
		for i := range want {
			got := z.synth.key(i)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("entry %d is %q, want %q", i, got, want[i])
			}
			if e := entries[z.synth.aux[i]]; z.synth.name(i) != e.Name || z.synth.kind[i] != e.Kind {
				t.Fatalf("entry %d (%s) carries the aux of %s", i, z.synth.name(i), e.Name)
			}
		}
	})
}
