package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/faults"
)

// TestLoadOrWarm pins the boot decision table: a good snapshot restores
// (BootSnapshot), a bad or absent one falls back to a live warm-up with the
// reason logged, and a fault plan disables snapshot loading outright.
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

	// Fault plan: the snapshot is ignored even though it is valid — a fleet
	// booting into an outage must warm through it.
	plan := &faults.Plan{Seed: 1, Outages: []faults.Window{{Start: 0, End: 1 << 62}}}
	logs = nil
	got, mode, err = LoadOrWarm(u, cfg, plan, path, logf)
	if err != nil {
		t.Fatal(err)
	}
	if mode != BootLiveWarm {
		t.Errorf("fault plan: mode=%v, want live warm", mode)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "fault plan") {
		t.Errorf("fault plan logs = %q, want the ignore reason", logs)
	}
	planned := got.Sizes()
	if planned.Delegations >= warmed.Delegations || planned.ZoneOutcomes >= warmed.ZoneOutcomes {
		t.Errorf("outage warm matched healthy warm (%d/%d delegations, %d/%d zones) — snapshot state leaked through the plan",
			planned.Delegations, warmed.Delegations, planned.ZoneOutcomes, warmed.ZoneOutcomes)
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

// TestBootModeString pins the labels the stats surface and timing lines use.
func TestBootModeString(t *testing.T) {
	if BootLiveWarm.String() != "live-warm" || BootSnapshot.String() != "snapshot" {
		t.Errorf("BootMode strings = %q/%q", BootLiveWarm, BootSnapshot)
	}
}
