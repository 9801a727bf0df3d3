#!/usr/bin/env bash
# benchsmoke.sh — machine-enforce the cycle loop's alloc-free invariant.
# Runs BenchmarkCoreCycles, BenchmarkTraceFill and BenchmarkTapeFill (the
# block instruction supply the cycle loop calls, generated and read from a
# recorded tape) three times each with allocation reporting
# and fails if any sample reports allocs/op > 0: steady-state simulation
# must not allocate, and a regression here silently costs every experiment
# sweep.
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="$(go test -run '^$' -bench '^(BenchmarkCoreCycles|BenchmarkTraceFill|BenchmarkTapeFill)$' -benchtime 200000x -count 3 -benchmem .)"
echo "$OUT"

echo "$OUT" | awk '
/^Benchmark(CoreCycles|TraceFill|TapeFill)/ {
    sub(/-[0-9]+$/, "", $1)
    found[$1]++
    for (i = 1; i <= NF; i++) {
        if ($i == "allocs/op" && $(i-1) + 0 > 0) {
            printf "benchsmoke: allocs/op = %s in: %s\n", $(i-1), $0 > "/dev/stderr"
            bad = 1
        }
    }
}
END {
    n = split("BenchmarkCoreCycles BenchmarkTraceFill BenchmarkTapeFill", names, " ")
    for (k = 1; k <= n; k++) {
        if (found[names[k]] < 3) {
            printf "benchsmoke: expected 3 %s samples, saw %d\n", names[k], found[names[k]] > "/dev/stderr"
            bad = 1
        }
    }
    exit bad
}'
echo "benchsmoke: BenchmarkCoreCycles, BenchmarkTraceFill and BenchmarkTapeFill are alloc-free across 3 samples each"
