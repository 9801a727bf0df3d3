#!/usr/bin/env bash
# ctxcheck.sh — fail if a simulation could run without a real context.
#
# A context.Context is the only way to stop a simulation: deadlines, the
# stall watchdog and a failed sibling cell all cancel one, and every entry
# point polls it at least once per timeslice. A context.TODO() or a literal
# nil context cuts that chain — and a nil one panics at the first poll — so
# non-test code under internal/, cmd/ and examples/ may contain neither
# context.TODO() nor a nil first argument to RunScheduleCtx, Warm,
# SoloRate(s), CoRun, RunAdaptiveCtx, RunRoundRobinCtx, core.Run,
# SamplePhase or parallel.Map / ForEach. Experiments reach the kernel only
# through core and queueing, whose loops poll the context, so non-test code
# under internal/experiments may not build a bare core with cpu.New. The
# check greps source lines; it runs nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

patterns=(
    'context\.TODO\(\)'
    '\b(RunScheduleCtx|Warm|SoloRates?|CoRun|RunAdaptiveCtx|RunRoundRobinCtx|SamplePhase)\(\s*nil\s*[,)]'
    '(\bcore\.|(^|[^.[:alnum:]_]))Run\(\s*nil\s*[,)]'
    '(\bparallel\.|(^|[^.[:alnum:]_]))(Map|ForEach)\(\s*nil\s*[,)]'
)
bad=0
for p in "${patterns[@]}"; do
    if hits="$(grep -rnE --include='*.go' --exclude='*_test.go' "$p" internal cmd examples)"; then
        echo "ctxcheck: a simulation is handed no real context:" >&2
        echo "$hits" >&2
        bad=1
    fi
done
if hits="$(grep -rnE --include='*.go' --exclude='*_test.go' '\bcpu\.New\(' internal/experiments)"; then
    echo "ctxcheck: an experiment drives a bare core, which never polls its context:" >&2
    echo "$hits" >&2
    bad=1
fi
if [ "$bad" -ne 0 ]; then
    exit 1
fi
echo "ctxcheck: every simulation gets a real context"
