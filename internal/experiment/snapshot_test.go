package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// leakTable renders a sweep result with zeroed timings, i.e. exactly the
// deterministic leak-table bytes (the bracketed wall-clock lines depend on
// Timing and are excluded from every byte-identity pin).
func leakTable(res *SweepResult) string {
	table := &SweepResult{Points: make([]SweepPoint, len(res.Points))}
	for i, pt := range res.Points {
		table.Points[i] = SweepPoint{Population: pt.Population, Workload: pt.Workload, Metrics: pt.Metrics}
	}
	return table.String()
}

// TestSweepSnapshotEquivalence pins the tentpole's correctness claim: a
// sweep point booted from a warm-state snapshot produces a leak table
// byte-identical to a live-warm run, at any workers setting — and a refused
// snapshot falls back to live warm-up with the same result.
func TestSweepSnapshotEquivalence(t *testing.T) {
	const n = 120
	dir := t.TempDir()
	snap := filepath.Join(dir, "warm.snap")

	run := func(workers int, opts SweepOpts) *SweepResult {
		t.Helper()
		res, err := SweepWithOpts(Params{Seed: 7, Workers: workers}, []int{n}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(2, SweepOpts{SnapshotSave: snap})
	if got := base.Points[0].Timing.BootMode; got != core.BootLiveWarm {
		t.Fatalf("saving run booted %v, want live-warm", got)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	baseTable := leakTable(base)

	for _, workers := range []int{1, 4} {
		loaded := run(workers, SweepOpts{SnapshotLoad: snap})
		if got := loaded.Points[0].Timing.BootMode; got != core.BootSnapshot {
			t.Fatalf("workers=%d: booted %v, want snapshot", workers, got)
		}
		if got := leakTable(loaded); got != baseTable {
			t.Errorf("workers=%d: snapshot-boot leak table differs from live warm:\nlive:\n%s\nsnapshot:\n%s",
				workers, baseTable, got)
		}
		if !reflect.DeepEqual(loaded.Points[0].Metrics, base.Points[0].Metrics) {
			t.Errorf("workers=%d: snapshot-boot metrics differ:\nlive:     %+v\nsnapshot: %+v",
				workers, base.Points[0].Metrics, loaded.Points[0].Metrics)
		}
	}

	// A corrupt snapshot is refused out loud and the point warms live to
	// the identical result.
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs []string
	fallback := run(2, SweepOpts{
		SnapshotLoad: bad,
		Log:          func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if got := fallback.Points[0].Timing.BootMode; got != core.BootLiveWarm {
		t.Errorf("corrupt snapshot booted %v, want live-warm fallback", got)
	}
	if len(logs) == 0 || !strings.Contains(logs[0], "refused") {
		t.Errorf("corrupt snapshot logs = %q, want a refusal reason", logs)
	}
	if got := leakTable(fallback); got != baseTable {
		t.Error("fallback leak table differs from live warm")
	}
}

// TestSweepCheckpointResume pins resumability: a sweep point restarted with
// a partial checkpoint skips the finished shards and still merges to the
// identical report, then removes the spent checkpoint. A checkpoint for a
// different workload is refused and the point runs fresh.
func TestSweepCheckpointResume(t *testing.T) {
	const n, seed = 120, int64(7)
	base, err := sweepPoint(n, seed, 2, SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Build the partial checkpoint an interrupted run would have left:
	// replicate the point's exact world (same population, universe options,
	// resolver config) and checkpoint three of its eight shards.
	pop, err := buildPopulation(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	u, err := buildUniverse(pop, seed, func(o *universe.Options) {
		o.PacketCacheCap = sweepPacketCacheCap
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Limits = resolver.CacheLimits{Answers: sweepAnswerCap, Zones: sweepZoneCap}
	ic, err := core.WarmInfra(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Infra = ic
	aud, err := core.NewShardedAuditor(u, core.ShardedOptions{
		Options: core.Options{Resolver: cfg}, Workers: sweepShards, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.QueryDomains(pop.Top(n)); err != nil {
		t.Fatal(err)
	}
	ck := &core.Checkpoint{
		UniverseFP: u.Fingerprint(), ConfigFP: cfg.WarmFingerprint(),
		Population: n, Shards: sweepShards,
		States: make(map[int]*core.ShardState),
	}
	for _, i := range []int{0, 3, 6} {
		ck.States[i] = aud.ExportShardState(i)
	}
	path := filepath.Join(t.TempDir(), "sweep.ck")
	if err := core.SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}

	resumed, err := sweepPoint(n, seed, 2, SweepOpts{Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Timing.ResumedShards != 3 {
		t.Errorf("ResumedShards = %d, want 3", resumed.Timing.ResumedShards)
	}
	// MaterializedSLDs measures work done by this process: the resumed run
	// skips three shards' domains, so it must materialize strictly fewer
	// SLD zones. Every leak-accounting metric must be identical.
	if resumed.Metrics.MaterializedSLDs >= base.Metrics.MaterializedSLDs {
		t.Errorf("resumed run materialized %d SLDs, uninterrupted %d — resume re-did skipped work",
			resumed.Metrics.MaterializedSLDs, base.Metrics.MaterializedSLDs)
	}
	normalize := func(m SweepMetrics) SweepMetrics { m.MaterializedSLDs = 0; return m }
	if !reflect.DeepEqual(normalize(resumed.Metrics), normalize(base.Metrics)) {
		t.Errorf("resumed metrics differ from uninterrupted run:\nbase:    %+v\nresumed: %+v",
			base.Metrics, resumed.Metrics)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spent checkpoint still on disk (stat err = %v)", err)
	}

	// Mismatched checkpoint (wrong population): refused, fresh run.
	ck.Population = n + 1
	if err := core.SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	var logs []string
	fresh, err := sweepPoint(n, seed, 2, SweepOpts{
		Checkpoint: path,
		Log:        func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Timing.ResumedShards != 0 {
		t.Errorf("mismatched checkpoint resumed %d shards", fresh.Timing.ResumedShards)
	}
	if len(logs) == 0 || !strings.Contains(logs[0], "refused") {
		t.Errorf("mismatched checkpoint logs = %q, want a refusal reason", logs)
	}
	if !reflect.DeepEqual(fresh.Metrics, base.Metrics) {
		t.Error("fresh run after refused checkpoint differs from baseline")
	}
}

// TestSweepCheckpointWrittenPerShard pins the incremental write: after an
// uninterrupted checkpointed run the file is gone (the point completed),
// but a hook-free way to see the per-shard writes is the multi-point path
// suffix — exercise pointPath here so the naming contract is pinned too.
func TestPointPath(t *testing.T) {
	if got := pointPath("", 100, true); got != "" {
		t.Errorf("empty base: %q", got)
	}
	if got := pointPath("warm.snap", 100, false); got != "warm.snap" {
		t.Errorf("single point: %q", got)
	}
	if got := pointPath("warm.snap", 100, true); got != "warm.snap.pop100" {
		t.Errorf("multi point: %q", got)
	}
}
