#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (Go's build cache included, so nothing is written outside the checkout)
# and runs it from bench/. Arguments pass through unchanged:
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTOOLCHAIN=local
# The commit goes into the header. Git must not look above the checkout for
# a repository: a checkout without one is "unknown".
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "${root}")" git -C "${root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "${root}/bench"
go build -buildvcs=false -ldflags "-X main.commit=${commit}" -o "${build}/lookaside-bench" .
exec "${build}/lookaside-bench" "$@"
