# Development targets for the lookaside reproduction.

GO ?= go

.PHONY: all build test vet cover bench bench-hotpath bench-faults bench-sweep bench-sweep-baseline bench-serve bench-serve-baseline bench-snapshot bench-snapshot-baseline bench-overload bench-overload-baseline benchdiff benchdiff-serve benchdiff-snapshot benchdiff-overload abpairs soak fuzz experiments experiments-full clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a module of its own (bench/go.mod replaces onto this tree), so
# ./... does not reach it; vet and smoke-test it here so a signature change
# under internal/ cannot silently break the benchmark.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage summary across all packages.
cover:
	$(GO) test -cover ./...

# The benchmark harness: one benchmark per table/figure plus substrate
# microbenchmarks. Metrics in the output are the reproduced rows.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmarks (one simnet exchange plus the leak-curve sweeps) with
# allocation reporting. Emits the raw output to BENCH_hotpath.txt and a
# flat {benchmark: {metric: value}} summary to BENCH_hotpath.json via
# scripts/bench2json.awk.
BENCHTIME ?= 2s

bench-hotpath:
	$(GO) test -run XXX -bench 'BenchmarkExchange|BenchmarkFig8DLVQueries|BenchmarkFig9LeakProportion' \
		-benchmem -benchtime $(BENCHTIME) . | tee BENCH_hotpath.txt
	@awk -f scripts/bench2json.awk BENCH_hotpath.txt > BENCH_hotpath.json
	@cat BENCH_hotpath.json

# Fault benchmarks: the E17 retry-amplification experiment end to end plus
# the per-exchange cost of the fault decision path. Emits the raw output to
# BENCH_faults.txt and a flat {benchmark: {metric: value}} summary to
# BENCH_faults.json.
bench-faults:
	$(GO) test -run XXX -bench 'BenchmarkFaultsExperiment|BenchmarkFaultedExchange' \
		-benchmem -benchtime $(BENCHTIME) . | tee BENCH_faults.txt
	@awk -f scripts/bench2json.awk BENCH_faults.txt > BENCH_faults.json
	@cat BENCH_faults.json

# Million-domain sweep benchmarks (DESIGN.md §9): universe setup lazy vs.
# eager, end-to-end sweep throughput at 10k/100k/1M, and the pre-sweep
# pooled-worker baseline. One iteration per point is the measurement (the
# sweep audits the whole population internally), so this target always runs
# -benchtime=1x; the 1M point takes a few minutes and a few GB. Emits
# BENCH_sweep.txt and BENCH_sweep.json.
bench-sweep:
	$(GO) test -run XXX -bench 'BenchmarkSweepSetup|BenchmarkSweepThroughput|BenchmarkSweepBaseline' \
		-benchmem -benchtime 1x -timeout 60m . | tee BENCH_sweep.txt
	@awk -f scripts/bench2json.awk BENCH_sweep.txt > BENCH_sweep.json
	@cat BENCH_sweep.json

# Serving-tier benchmark: the full resolved stack (resolver pool, shared
# sealed infra, loopback UDP+TCP listeners, stats surface) under the
# trace-replay load generator in closed-loop mode. One iteration replays
# the whole deterministic schedule, so this target always runs
# -benchtime=1x. Emits BENCH_serve.txt and BENCH_serve.json.
bench-serve:
	$(GO) test -run XXX -bench 'BenchmarkServeReplay' \
		-benchtime 1x -timeout 20m . | tee BENCH_serve.txt
	@awk -f scripts/bench2json.awk BENCH_serve.txt > BENCH_serve.json
	@cat BENCH_serve.json

# Refresh the committed serving-tier baseline after an intentional change.
bench-serve-baseline: bench-serve
	cp BENCH_serve.json BENCH_serve.baseline.json

# Warm-state snapshot benchmark (DESIGN.md §12): cold-boot-to-ready via
# snapshot restore at 10k/100k/1M, with the live warm-up it replaces
# reported as speedup_x. The setup warms each population once (the 1M
# point takes minutes — that is the cost being measured), so one timed
# iteration is plenty. Emits BENCH_snapshot.txt and BENCH_snapshot.json.
bench-snapshot:
	$(GO) test -run XXX -bench 'BenchmarkSnapshotLoad' \
		-benchmem -benchtime 1x -timeout 30m . | tee BENCH_snapshot.txt
	@awk -f scripts/bench2json.awk BENCH_snapshot.txt > BENCH_snapshot.json
	@cat BENCH_snapshot.json

# Refresh the committed snapshot-boot baseline after an intentional change.
bench-snapshot-baseline: bench-snapshot
	cp BENCH_snapshot.json BENCH_snapshot.baseline.json

# Overload-protection benchmarks (DESIGN.md §13): the per-packet cost of
# the shed path, and the E18 goodput experiment end to end — goodput_pct
# is the share of its plateau the shedding rig keeps at 2x offered load.
# One goodput iteration runs the whole experiment over real sockets, so
# this target always runs -benchtime=1x. Emits BENCH_overload.txt and
# BENCH_overload.json.
bench-overload:
	$(GO) test -run XXX -bench 'BenchmarkOverloadShedPath|BenchmarkOverloadGoodput' \
		-benchtime 1x -timeout 20m . | tee BENCH_overload.txt
	@awk -f scripts/bench2json.awk BENCH_overload.txt > BENCH_overload.json
	@cat BENCH_overload.json

# Refresh the committed overload baseline after an intentional change.
bench-overload-baseline: bench-overload
	cp BENCH_overload.json BENCH_overload.baseline.json

# The deterministic chaos soak (internal/soak): full UDP/TCP stack, seeded
# registry faults, admission control under a cache-busting storm, run
# under the race detector. SOAK_SEED picks the fault plan; the seed is in
# the test log, so a CI failure reproduces with `make soak SOAK_SEED=n`.
SOAK_SEED ?= 1

soak:
	@echo "chaos soak: seed $(SOAK_SEED)"
	SOAK_SEED=$(SOAK_SEED) $(GO) test -race -run 'TestChaosSoak|TestPlanDeterminism' -v -count=1 ./internal/soak

# Regression gate: compare a fresh BENCH_sweep.json (run `make bench-sweep`
# first) against the committed baseline at the default 10% threshold —
# meant for before/after runs on the same machine. CI uses the same script
# with a loose threshold because its hardware differs from the baseline's.
benchdiff:
	awk -f scripts/benchdiff.awk BENCH_sweep.baseline.json BENCH_sweep.json

# Same gate for the serving tier (run `make bench-serve` first).
benchdiff-serve:
	awk -f scripts/benchdiff.awk BENCH_serve.baseline.json BENCH_serve.json

# Same gate for snapshot boot (run `make bench-snapshot` first).
benchdiff-snapshot:
	awk -f scripts/benchdiff.awk BENCH_snapshot.baseline.json BENCH_snapshot.json

# Same gate for overload protection (run `make bench-overload` first).
benchdiff-overload:
	awk -f scripts/benchdiff.awk BENCH_overload.baseline.json BENCH_overload.json

# Paired A/B runs of bench/ — the working tree against a git ref, order
# alternating by seed — with medians, wins/N and the parent's own spread per
# end-to-end metric: the acceptance procedure for any claimed gain (see
# scripts/abpairs.sh). Ten pairs of a 1M-name workload take about ten minutes.
REF ?= HEAD
WORKLOAD ?= serve_cold
PAIRS ?= 10

abpairs:
	bash scripts/abpairs.sh $(REF) $(WORKLOAD) $(PAIRS)

# Refresh the committed baseline after an intentional performance change.
# The baseline has its own name so `make clean` (which removes the
# regenerated-on-demand BENCH_*.json artifacts) never deletes it.
bench-sweep-baseline: bench-sweep
	cp BENCH_sweep.json BENCH_sweep.baseline.json

# Short fuzzing pass over every Fuzz* target (wire decoder, zone parser,
# fault schedules). -fuzz accepts a single target per run, so discover and
# loop.
FUZZ_PKGS = ./internal/dns ./internal/zonefile ./internal/faults ./internal/snapshot ./internal/core

fuzz:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			$(GO) test -fuzz="^$$target\$$" -fuzztime=30s $$pkg; \
		done; \
	done

# Regenerate every table and figure at 10% scale (about two minutes).
experiments:
	$(GO) run ./cmd/dlvmeasure -exp all -seed 1 -scale 10

# Paper-scale run (top-1M sweep; takes a while and needs a few GB of RAM).
experiments-full:
	$(GO) run ./cmd/dlvmeasure -exp all -seed 1 -scale 1

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt BENCH_hotpath.txt BENCH_hotpath.json \
		BENCH_faults.txt BENCH_faults.json BENCH_sweep.txt BENCH_sweep.json \
		BENCH_serve.txt BENCH_serve.json BENCH_snapshot.txt BENCH_snapshot.json \
		BENCH_overload.txt BENCH_overload.json
