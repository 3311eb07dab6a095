# Development targets for the lookaside reproduction.

GO ?= go

.PHONY: all build test vet cover bench abpairs soak fuzz experiments experiments-full clean

all: build vet test

build:
	$(GO) build ./...

# Every command is driven by a test: a main package without one fails vet.
UNTESTED_MAINS = {{if and (eq .Name "main") (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }
	@untested="$$($(GO) list -f '$(UNTESTED_MAINS)' ./...)"; \
		test -z "$$untested" || { echo "main packages without tests:"; echo "$$untested"; exit 1; }

# bench/ is a module of its own (bench/go.mod replaces onto this tree), so
# ./... does not reach it; vet and smoke-test it here so a signature change
# under internal/ cannot silently break the benchmark.
test:
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Coverage summary across all packages.
cover:
	$(GO) test -cover ./...

# The repo's one benchmark (bench/README.md): every workload in
# BENCHMARK.json, one JSON result line each.
bench:
	bash bench/run.sh -all

# The deterministic chaos soak (internal/soak): full UDP/TCP stack, seeded
# registry faults, admission control under a cache-busting storm, run
# under the race detector once per fault plan. SOAK_SEED picks the plans
# (default five); the seed is in the test log, so a CI failure reproduces
# with `make soak SOAK_SEED=n`.
SOAK_SEED ?= 1 2 3 4 5

soak:
	@set -e; for seed in $(SOAK_SEED); do \
		echo "chaos soak: seed $$seed"; \
		SOAK_SEED=$$seed $(GO) test -race -run 'TestChaosSoak|TestPlanDeterminism' -v -count=1 ./internal/soak; \
	done

# Paired A/B runs of bench/ — the working tree against a git ref, order
# alternating by seed — with medians, wins/N, the parent's own spread and an
# ok/worse/unresolved verdict per end-to-end metric: the acceptance procedure
# for any change to a measured path (see scripts/abpairs.sh). WORKLOAD=all
# runs the four in turn. Ten pairs of one workload take 10-25 minutes.
REF ?= HEAD
WORKLOAD ?= serve_cold
PAIRS ?= 10

abpairs:
	bash scripts/abpairs.sh $(REF) $(WORKLOAD) $(PAIRS)

# Short fuzzing pass over every Fuzz* target (wire decoder, zone parser,
# fault schedules, snapshot decoder). The packages are found
# from the tree, so a new target needs no edit here or in CI; -fuzz accepts a
# single target per run, so list and loop. FUZZTIME is per target.
FUZZ_PKGS = $(shell grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' . | xargs -n1 dirname | sort -u)
FUZZTIME ?= 30s

fuzz:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			$(GO) test -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) $$pkg; \
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
	rm -rf .bench_build bench/out
