#!/usr/bin/env bash
# bench.sh — run the root and per-stage benchmarks and emit a
# BENCH_<date>.json perf snapshot (min/median ns/op, allocs/op, B/op,
# reported metrics per table/figure, sim_cycles/sec for the simulator hot
# loop, and the cold Figure-1 sweep wall-clock) so future optimisation PRs
# have a trajectory to compare against.
#
# Usage:
#   scripts/bench.sh [bench-regex] [benchtime] [count]
#
# Defaults: the fast structural benchmarks, the simulator hot loop and its
# instruction supply in both shapes (At, Fill), one serve-scale rank miss
# in process (cmd/sosd), the per-stage microbenchmarks and the front
# tier's (one cached dispatch through internal/fleet, the hedge-delay
# tracker's read and write), 5 repetitions at a pinned -benchtime so
# run-to-run noise is visible in the snapshot instead of silently folded
# into a single sample. Pass '.' to run everything (slow: the full figure
# suite simulates hundreds of millions of cycles).
#
# The cold Figure-1 sweep is timed separately in a fresh process with
# -count 1 (the in-process eval memo is cleared per iteration, but a fresh
# process also rules out warm OS and allocator state); set BENCH_FIG1=0 to
# skip it when iterating on the micro numbers.
#
# The open-system overload sweep (sosbench -exp openload, quick scale)
# contributes per-scheduler response-time tails (p50/p99/p99.9) across
# offered-load factors to the snapshot; it simulates a few hundred million
# cycles (~5 minutes), so set BENCH_OPENLOAD=0 to skip it.
set -euo pipefail

cd "$(dirname "$0")/.."

PATTERN="${1:-BenchmarkCoreCycles|BenchmarkTraceAt|BenchmarkTraceFill|BenchmarkRankMiss|BenchmarkScheduleSample|BenchmarkSOSRun|BenchmarkFetch|BenchmarkIssue|BenchmarkRetire|BenchmarkFrontDispatchCached|BenchmarkTracker}"
BENCHTIME="${2:-1s}"
COUNT="${3:-5}"
FIG1="${BENCH_FIG1:-1}"
OPENLOAD="${BENCH_OPENLOAD:-1}"
if [ "$COUNT" -lt 5 ]; then
    echo "bench.sh: count must be >= 5 (got $COUNT); single-digit samples make min/median meaningless" >&2
    exit 1
fi
OUT="BENCH_$(date +%Y%m%d).json"
RAW="$(mktemp)"
FIG1RAW="$(mktemp)"
OPENLOADJSON="$(mktemp)"
trap 'rm -f "$RAW" "$FIG1RAW" "$OPENLOADJSON"' EXIT

# -timeout: the per-stage benchmarks re-prime their state off the clock
# every few iterations, and under -benchmem each StopTimer/StartTimer reads
# the memory stats, so internal/cpu spends far longer in wall time than its
# measured seconds — past go test's default 10 minutes at five samples.
echo "running: go test -run ^\$ -bench \"$PATTERN\" -benchtime $BENCHTIME -count $COUNT -benchmem -timeout 90m ./..." >&2
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem -timeout 90m ./... | tee "$RAW"

if [ "$FIG1" = "1" ]; then
    echo "running: cold Figure-1 sweep (fresh process, -benchtime 1x -count 1)" >&2
    go test -run '^$' -bench '^BenchmarkFigure1$' -benchtime 1x -count 1 . | tee "$FIG1RAW"
else
    : > "$FIG1RAW"
fi

if [ "$OPENLOAD" = "1" ]; then
    echo "running: open-system overload sweep (sosbench -exp openload -scale quick)" >&2
    go run ./cmd/sosbench -exp openload -scale quick -json "$OPENLOADJSON" >/dev/null
else
    : > "$OPENLOADJSON"
fi

# Aggregate the repeated `go test -bench` lines into a JSON snapshot.
# Each benchmark line has the shape:
#   BenchmarkName  N  t ns/op [m unit ...]  b B/op  a allocs/op
# and appears $COUNT times; the snapshot records min and median per
# metric, plus the actual per-sample b.N (a 1x benchtime pins N to 1; a
# time-based benchtime lets the harness pick it, and the snapshot must say
# which happened). A benchmark that produced fewer than 2 samples fails
# the run: one sample means the regex matched a benchmark that crashed or
# was skipped partway, and a snapshot built on it would record pure noise.
python3 - "$RAW" "$OUT" "$COUNT" "$BENCHTIME" "$FIG1RAW" "$OPENLOADJSON" <<'EOF'
import json, re, sys, datetime, statistics, subprocess, os

raw, out, want, benchtime, fig1raw, openloadjson = sys.argv[1:7]
want = int(want)

def parse(path):
    samples = {}
    for line in open(path):
        m = re.match(r'^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$', line)
        if not m:
            continue
        name, iters, rest = m.group(1), int(m.group(2)), m.group(3)
        metrics = {}
        for val, unit in re.findall(r'([0-9.e+]+)\s+(\S+)', rest):
            metrics[unit] = float(val)
        samples.setdefault(name, []).append({"iterations": iters, "metrics": metrics})
    return samples

samples = parse(raw)
if not samples:
    sys.exit("bench.sh: no benchmark lines matched; check the pattern")

benches = {}
bad = []
for name, runs in sorted(samples.items()):
    if len(runs) < 2:
        bad.append(f"{name}: {len(runs)} sample(s), want {want}")
        continue
    units = sorted({u for r in runs for u in r["metrics"]})
    agg = {}
    for u in units:
        vals = [r["metrics"][u] for r in runs if u in r["metrics"]]
        agg[u] = {"min": min(vals), "median": statistics.median(vals)}
    benches[name] = {
        "samples": len(runs),
        "iterations_per_sample": [r["iterations"] for r in runs],
        "metrics": agg,
    }
if bad:
    sys.exit("bench.sh: benchmarks with too few samples to aggregate:\n  "
             + "\n  ".join(bad))

commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                        capture_output=True, text=True).stdout.strip()
snapshot = {
    "date": datetime.date.today().isoformat(),
    "commit": commit,
    "go": subprocess.run(["go", "version"], capture_output=True,
                         text=True).stdout.strip(),
    "benchtime": benchtime,
    "benchmarks": benches,
}

# The open-system sweep's response-time tails, keyed dist/factor/scheduler
# so successive snapshots can diff the overload p99 directly.
if os.path.getsize(openloadjson) > 0:
    rows = json.load(open(openloadjson)).get("openload", [])
    snapshot["openload"] = {
        f'{r["Dist"]}/{r["Factor"]:.2f}x/{r["Scheduler"]}': {
            "p50": r["P50"], "p99": r["P99"], "p999": r["P999"],
            "mean": r["MeanResponse"], "completed": r["Completed"],
        }
        for r in rows
    }

fig1 = parse(fig1raw)
if "BenchmarkFigure1" in fig1:
    run = fig1["BenchmarkFigure1"][0]
    snapshot["figure1_sweep"] = {
        "wallclock_sec": run["metrics"]["ns/op"] / 1e9,
        "metrics": run["metrics"],
    }

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benchmarks, {want} samples each)", file=sys.stderr)
EOF
