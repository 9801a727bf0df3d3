#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark (a module of its
# own, so the repo's `go build ./...` and `go test ./...` never see it) and
# runs it from the checkout root. Every build product, the Go build cache
# included, lands under .bench_build/ so nothing outside the checkout is
# written.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p .bench_build/bin
go build -C benchmark -o ../.bench_build/bin/benchmark .
exec .bench_build/bin/benchmark "$@"
