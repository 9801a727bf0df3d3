#!/usr/bin/env bash
# fleetsoak.sh — soak a 1-front/3-backend sosd fleet and assert the fleet
# contract: paced load through sosfront survives a SIGKILLed backend with
# zero failed client requests (429/503 with Retry-After are allowed), every
# 200 is byte-identical to a single-node oracle, and the killed backend
# restarts, warms its response cache from a ring sibling before reporting
# ready, and serves its first post-warm request as a cache hit.
#
# Usage:
#   scripts/fleetsoak.sh                 # 30-second soak
#   SOAK_SECONDS=10 scripts/fleetsoak.sh # shorter, for local smoke
set -euo pipefail

cd "$(dirname "$0")/.."

SOAK_SECONDS="${SOAK_SECONDS:-30}"
KILL_AT=$((SOAK_SECONDS / 3))

TMP="$(mktemp -d)"
cleanup() {
    for pidf in "$TMP"/*.pid; do
        [ -f "$pidf" ] && kill "$(cat "$pidf")" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/sosd" ./cmd/sosd
go build -o "$TMP/sosfront" ./cmd/sosfront

# start_daemon NAME LOGFILE BIN ARGS...: launch a daemon on with its log in
# LOGFILE, record its pid in $TMP/NAME.pid, and echo the bound address
# parsed from the "listening on" contract line.
start_daemon() {
    local name="$1" logf="$2" bin="$3"
    shift 3
    "$bin" "$@" </dev/null >/dev/null 2>"$logf" &
    local pid=$!
    echo "$pid" >"$TMP/$name.pid"
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on \(.*\)/\1/p' "$logf" | head -n1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: $name died on startup:" >&2
            cat "$logf" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: $name never logged its address" >&2
        exit 1
    fi
    echo "$addr"
}

# stop_daemon NAME LOGFILE: SIGTERM and require a clean drained exit.
stop_daemon() {
    local name="$1" logf="$2"
    local pid
    pid="$(cat "$TMP/$name.pid")"
    kill -TERM "$pid"
    for _ in $(seq 1 200); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "FAIL: $name still running 20s after SIGTERM" >&2
        exit 1
    fi
    if ! grep -q "drained cleanly" "$logf"; then
        echo "FAIL: no clean-drain line in $logf after SIGTERM:" >&2
        tail -5 "$logf" >&2
        exit 1
    fi
    rm -f "$TMP/$name.pid"
}

BACKEND_FLAGS=(-scale serve -rate 500 -queue 64 -workers 4 -drain 15s)

echo "== fleet: 1 oracle + 3 backends + sosfront =="
ORACLE="$(start_daemon oracle "$TMP/oracle.log" "$TMP/sosd" \
    -addr 127.0.0.1:0 -checkpoint "$TMP/oracle.ckpt" "${BACKEND_FLAGS[@]}")"
B1="$(start_daemon b1 "$TMP/b1.log" "$TMP/sosd" \
    -addr 127.0.0.1:0 -checkpoint "$TMP/b1.ckpt" -checkpoint-every 1 "${BACKEND_FLAGS[@]}")"
B2="$(start_daemon b2 "$TMP/b2.log" "$TMP/sosd" \
    -addr 127.0.0.1:0 -checkpoint "$TMP/b2.ckpt" -checkpoint-every 1 "${BACKEND_FLAGS[@]}")"
B3="$(start_daemon b3 "$TMP/b3.log" "$TMP/sosd" \
    -addr 127.0.0.1:0 -checkpoint "$TMP/b3.ckpt" -checkpoint-every 1 "${BACKEND_FLAGS[@]}")"
FRONT="$(start_daemon front "$TMP/front.log" "$TMP/sosfront" \
    -addr 127.0.0.1:0 -backends "http://$B1,http://$B2,http://$B3" \
    -replicas 2 -drain 15s)"
echo "oracle=$ORACLE backends=$B1,$B2,$B3 front=$FRONT"

# Seed the warm canary into a surviving backend's cache: seed 4242 is
# outside the soak load's seed space (0..63), so only this request puts it
# there. After the kill/restart, b3 must answer it as a hit it could only
# have received from a sibling's cache transfer.
CANARY='{"mix":"Jsb(4,2,2)","seed":4242,"samples":2,"mode":"rank","deadline_ms":15000}'
curl -sf -X POST -H 'Content-Type: application/json' -d "$CANARY" \
    "http://$B1/v1/schedule" -o "$TMP/canary.b1" \
    || { echo "FAIL: canary seed request to b1 failed" >&2; exit 1; }

echo "== soak: ${SOAK_SECONDS}s through the front, SIGKILL b3 at t+${KILL_AT}s =="
"$TMP/sosfront" -soak "http://$FRONT" -oracle "http://$ORACLE" \
    -soak-duration "${SOAK_SECONDS}s" >"$TMP/soak.out" 2>"$TMP/soak.log" &
SOAK_PID=$!

sleep "$KILL_AT"
B3_PID="$(cat "$TMP/b3.pid")"
kill -KILL "$B3_PID"
rm -f "$TMP/b3.pid"
echo "killed b3 (pid $B3_PID)"
sleep 2

echo "== restart b3 with -warm-from, same address =="
start_daemon b3 "$TMP/b3-restart.log" "$TMP/sosd" \
    -addr "$B3" -checkpoint "$TMP/b3.ckpt" -checkpoint-every 1 \
    -warm-from "http://$B1,http://$B2" "${BACKEND_FLAGS[@]}" >/dev/null

# Wait until the restarted node reports ready (warm-up settled).
READY=""
for _ in $(seq 1 100); do
    if curl -sf "http://$B3/readyz" >/dev/null 2>&1; then
        READY=1
        break
    fi
    sleep 0.1
done
if [ -z "$READY" ]; then
    echo "FAIL: restarted b3 never became ready" >&2
    tail -5 "$TMP/b3-restart.log" >&2
    exit 1
fi
if ! grep -q "warmed .* cached responses" "$TMP/b3-restart.log"; then
    echo "FAIL: restarted b3 did not warm from a sibling:" >&2
    tail -5 "$TMP/b3-restart.log" >&2
    exit 1
fi
echo "ok: b3 restarted and warmed from a sibling"

# The restarted node's first canary answer must be a hit served from the
# sibling-transferred cache, byte-identical to the original.
curl -sf -X POST -H 'Content-Type: application/json' -d "$CANARY" \
    "http://$B3/v1/schedule" -o "$TMP/canary.b3" -D "$TMP/canary.hdr" \
    || { echo "FAIL: post-warm canary request to b3 failed" >&2; exit 1; }
if ! grep -qi '^x-cache: hit' "$TMP/canary.hdr"; then
    echo "FAIL: post-warm canary was not a cache hit:" >&2
    cat "$TMP/canary.hdr" >&2
    exit 1
fi
if ! cmp -s "$TMP/canary.b1" "$TMP/canary.b3"; then
    echo "FAIL: post-warm canary differs from the sibling's recording" >&2
    exit 1
fi
echo "ok: warm canary served as a byte-identical cache hit"

if ! wait "$SOAK_PID"; then
    echo "FAIL: fleet soak found violations:" >&2
    tail -20 "$TMP/soak.log" >&2
    exit 1
fi
grep -q "fleet soak passed" "$TMP/soak.out"
cat "$TMP/soak.out"
tail -1 "$TMP/soak.log" >&2 || true

echo "== drain the fleet =="
stop_daemon front "$TMP/front.log"
stop_daemon b3 "$TMP/b3-restart.log"
stop_daemon b2 "$TMP/b2.log"
stop_daemon b1 "$TMP/b1.log"
stop_daemon oracle "$TMP/oracle.log"
echo "PASS"
