package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// TestLoadOrWarm pins the boot decision table: a good snapshot restores
// (BootSnapshot), and a bad or absent one falls back to a live warm-up with
// the reason logged. serve's TestSnapshotLoadRefusedUnderFaultPlan pins the
// refusal of a snapshot under a fault plan.
func TestLoadOrWarm(t *testing.T) {
	u, _ := buildUniverse(t, 6)
	cfg := auditorConfig(u).Resolver
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.snap")

	ic, err := WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveWarmState(path, u, cfg, ic); err != nil {
		t.Fatal(err)
	}
	var logs []string
	logf := func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}

	got, mode, err := LoadOrWarm(u, cfg, nil, path, logf)
	if err != nil {
		t.Fatal(err)
	}
	if mode != BootSnapshot || !got.Sealed() {
		t.Errorf("good snapshot: mode=%v sealed=%t, want snapshot boot", mode, got.Sealed())
	}
	if len(logs) != 0 {
		t.Errorf("good snapshot logged: %q", logs)
	}
	warmed := ic.Sizes()
	if restored := got.Sizes(); restored != warmed {
		t.Errorf("restored sizes %+v != warmed %+v", restored, warmed)
	}

	// Corrupt file: refused with a logged reason, live warm-up result.
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs = nil
	got, mode, err = LoadOrWarm(u, cfg, nil, bad, logf)
	if err != nil {
		t.Fatal(err)
	}
	if mode != BootLiveWarm || !got.Sealed() {
		t.Errorf("corrupt snapshot: mode=%v, want live warm", mode)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "refused") {
		t.Errorf("corrupt snapshot logs = %q, want a refusal reason", logs)
	}

	// No path, nil logf: plain live warm-up.
	got, mode, err = LoadOrWarm(u, cfg, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if mode != BootLiveWarm || !got.Sealed() {
		t.Errorf("no snapshot: mode=%v sealed=%t", mode, got.Sealed())
	}
}

// TestSnapshotBootEquivalence pins that a snapshot boot only saves the
// warm-up: an audit on a fresh twin universe whose infrastructure cache
// LoadWarmState restored reports exactly what the same audit reports with
// the live-warmed cache the snapshot was saved from, at 1 and 4 shards. So
// does a twin whose corrupt snapshot LoadOrWarm refused, with a logged
// reason, in favour of a live warm-up.
func TestSnapshotBootEquivalence(t *testing.T) {
	const n = 120
	u, pop := buildUniverse(t, 6)
	cfg := auditorConfig(u).Resolver
	dir := t.TempDir()
	path := filepath.Join(dir, "warm.snap")
	live, err := WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveWarmState(path, u, cfg, live); err != nil {
		t.Fatal(err)
	}

	loadedU, _ := buildUniverse(t, 6)
	loaded, err := LoadWarmState(path, loadedU, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	fallbackU, _ := buildUniverse(t, 6)
	fallback, mode, err := LoadOrWarm(fallbackU, cfg, nil, bad, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if mode != BootLiveWarm || len(logs) != 1 || !strings.Contains(logs[0], "refused") {
		t.Errorf("corrupt snapshot: mode=%v logs=%q, want a live warm-up and one refusal reason", mode, logs)
	}

	audit := func(u *universe.Universe, infra *resolver.Cache, shards int) Report {
		t.Helper()
		c := cfg
		c.Infra = infra
		s, err := NewShardedAuditor(u, ShardedOptions{Options: Options{Resolver: c}, Workers: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.QueryDomains(pop.Top(n)); err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}
	for _, shards := range []int{1, 4} {
		want := audit(u, live, shards)
		if want.QueriedDomains != n || want.Capture.DLVQueries == 0 || want.ResolverStats.InfraHits == 0 {
			t.Fatalf("shards=%d: audit did not exercise the infrastructure cache: %+v", shards, want)
		}
		if got := audit(loadedU, loaded, shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: snapshot boot reports differently from live warm-up:\nlive:     %+v\nsnapshot: %+v",
				shards, want, got)
		}
		if got := audit(fallbackU, fallback, shards); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: refused-snapshot fallback reports differently from live warm-up:\nlive:     %+v\nfallback: %+v",
				shards, want, got)
		}
	}
}

// TestBootModeString pins the labels the stats surface and resolved use.
func TestBootModeString(t *testing.T) {
	if BootLiveWarm.String() != "live-warm" || BootSnapshot.String() != "snapshot" {
		t.Errorf("BootMode strings = %q/%q", BootLiveWarm, BootSnapshot)
	}
}
