#!/usr/bin/env bash
# crashtest.sh — SIGKILL a checkpointed sweep mid-run and assert that
# resuming from its snapshot reproduces the uninterrupted run byte for byte.
#
# Usage:
#   scripts/crashtest.sh            # worker counts 1 and 8
#   scripts/crashtest.sh "4"        # a specific worker count list
#
# The experiment and mix are deliberately small (one robustness mix at quick
# scale) so the whole exercise — baseline, crash, resume, deadline abort —
# finishes in a few minutes.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKERS="${1:-1 8}"
EXP="${EXP:-robustness}"
MIX="${MIX:-Jsb(4,2,2)}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/sosbench" ./cmd/sosbench
REF=""

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

for w in $WORKERS; do
    echo "== crash test: -exp $EXP -workers $w =="
    base="$TMP/base-$w.json"
    ckpt="$TMP/crash-$w.ckpt"
    resumed="$TMP/resume-$w.json"

    # Uninterrupted baseline, timed.
    t0=$(now_ms)
    "$TMP/sosbench" -exp "$EXP" -scale quick -mix "$MIX" -workers "$w" \
        -json "$base" >/dev/null
    base_ms=$(( $(now_ms) - t0 ))

    # Checkpointed run, SIGKILLed as soon as the snapshot holds a shard.
    t0=$(now_ms)
    "$TMP/sosbench" -exp "$EXP" -scale quick -mix "$MIX" -workers "$w" \
        -checkpoint "$ckpt" -checkpoint-every 1 >/dev/null 2>&1 &
    pid=$!
    for _ in $(seq 1 1800); do
        if [ -f "$ckpt" ] && grep -q "$EXP/" "$ckpt"; then break; fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: run finished before it could be killed; no crash injected" >&2
            exit 1
        fi
        sleep 0.1
    done
    first_ms=$(( $(now_ms) - t0 ))
    if [ -z "$REF" ]; then
        # The deadline pass below runs at this worker count and is timed
        # from this pass.
        REF="$base" DL_WORKERS="$w" DL_FIRST="$first_ms" DL_BASE="$base_ms"
    fi
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null && status=0 || status=$?
    if [ "$status" -ne 137 ]; then
        echo "FAIL: run should have died from SIGKILL (exit 137), got $status" >&2
        exit 1
    fi
    if ! grep -q "$EXP/" "$ckpt"; then
        echo "FAIL: snapshot recorded no shards before the kill" >&2
        exit 1
    fi

    # Resume must engage the snapshot, finish cleanly, and match the baseline.
    # (Progress lines go to stderr; capture both streams for the check.)
    out="$("$TMP/sosbench" -exp "$EXP" -scale quick -mix "$MIX" -workers "$w" \
        -resume "$ckpt" -json "$resumed" 2>&1)"
    if ! printf '%s' "$out" | grep -q "resuming from"; then
        echo "FAIL: resume did not engage the snapshot" >&2
        exit 1
    fi
    if ! cmp "$base" "$resumed"; then
        echo "FAIL: resumed JSON differs from the uninterrupted baseline" >&2
        exit 1
    fi
    echo "ok: workers=$w resumed byte-identical after SIGKILL"
done

# A deadline abort must exit 3 and leave a snapshot that holds at least one
# shard, which a later run resumes from. The deadline lands halfway between
# the first shard and the end of the run, as the first pass measured them,
# so that it falls after one shard and before the last even on a loaded host.
dl_ms=$(( (DL_FIRST + DL_BASE) / 2 ))
echo "== deadline test: -deadline ${dl_ms}ms (first shard at ${DL_FIRST}ms, whole run ${DL_BASE}ms, workers $DL_WORKERS) =="
dl="$TMP/deadline.ckpt"
dlout="$TMP/deadline.json"
set +e
"$TMP/sosbench" -exp "$EXP" -scale quick -mix "$MIX" -workers "$DL_WORKERS" \
    -deadline "${dl_ms}ms" -checkpoint "$dl" >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 3 ]; then
    echo "FAIL: deadline abort exited $status, want 3" >&2
    exit 1
fi
if ! grep -q "$EXP/" "$dl"; then
    echo "FAIL: the deadline snapshot holds no $EXP/ shard; the resume would be a rerun from scratch" >&2
    exit 1
fi
out="$("$TMP/sosbench" -exp "$EXP" -scale quick -mix "$MIX" -workers "$DL_WORKERS" \
    -resume "$dl" -json "$dlout" 2>&1)"
shards="$(printf '%s\n' "$out" | sed -n 's/.*resuming from .* (\([0-9]*\) shards recorded).*/\1/p')"
if [ -z "$shards" ] || [ "$shards" -lt 1 ]; then
    echo "FAIL: the resume did not report a snapshot with at least one shard (got '${shards}')" >&2
    exit 1
fi
if ! cmp "$REF" "$dlout"; then
    echo "FAIL: deadline-resumed JSON differs from the baseline" >&2
    exit 1
fi
echo "ok: deadline abort left a resumable snapshot of $shards shards"
echo "PASS"
