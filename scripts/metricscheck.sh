#!/usr/bin/env bash
# metricscheck.sh — boot a live sosd, drive one rank and one adaptive
# request through the full pipeline, scrape /metrics, and validate the
# exposition with scripts/promcheck: well-formed Prometheus text format,
# with every pipeline-stage, request, simulator and SOS-span family
# present. Then boot a sosfront over that sosd, send one request through
# it, and hold the front's /metrics and /statz to the same standard: every
# fleet family present, one hedge-delay series per request class, and
# fleet_hedges_total still a single unlabelled series. CI's lint job runs
# this so a scrape regression fails fast.
#
# Usage:
#   scripts/metricscheck.sh
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
cleanup() {
    for p in sosfront sosd; do
        [ -f "$TMP/$p.pid" ] && kill "$(cat "$TMP/$p.pid")" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/sosd" ./cmd/sosd
go build -o "$TMP/sosfront" ./cmd/sosfront

# wait_listening LOG PID NAME prints the address a daemon launched on an
# ephemeral port logged in its "listening on ADDR" contract line (same
# handshake as soak.sh), or fails if it died or never logged one.
wait_listening() {
    local log="$1" pid="$2" name="$3" addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on \(.*\)/\1/p' "$log" | head -n1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: $name died on startup:" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "FAIL: $name never logged its address" >&2
        exit 1
    fi
    echo "$name up at $addr" >&2
    echo "$addr"
}

LOG="$TMP/sosd.log"
"$TMP/sosd" -addr 127.0.0.1:0 </dev/null >/dev/null 2>"$LOG" &
PID=$!
echo "$PID" >"$TMP/sosd.pid"
ADDR="$(wait_listening "$LOG" "$PID" sosd)"

# One request per mode, so both the rank path and the adaptive SOS loop
# (whose phase spans feed obs_span_seconds) have reported latencies.
curl -fsS -X POST -H 'X-Client-ID: metricscheck' \
    -d '{"mix":"Jsb(4,2,2)","seed":7,"samples":4}' \
    "http://$ADDR/v1/schedule" >/dev/null
curl -fsS -X POST -H 'X-Client-ID: metricscheck' \
    -d '{"mix":"Jsb(4,2,2)","seed":7,"samples":3,"mode":"adaptive"}' \
    "http://$ADDR/v1/schedule" >/dev/null

SCRAPE="$TMP/metrics.txt"
curl -fsS "http://$ADDR/metrics" >"$SCRAPE"

go run ./scripts/promcheck -require \
    sosd_stage_seconds,sosd_http_request_seconds,sosd_http_requests_total,sosd_limiter_admitted,sosd_limiter_shed,sosd_breaker_state,sosd_breaker_opens,sosd_queue_depth,sosd_queue_rejected,sosd_retry_budget_exhausted,sosd_draining,sim_slices_total,sim_cycles_total,sim_committed_total,sim_conflict_cycles_total,obs_span_seconds \
    <"$SCRAPE"

# Every pipeline stage must have recorded at least the rank request.
for stage in limiter decode cache breaker queue retry; do
    if ! grep -q "sosd_stage_seconds_count{stage=\"$stage\"}" "$SCRAPE"; then
        echo "FAIL: /metrics has no latency series for pipeline stage '$stage'" >&2
        exit 1
    fi
done

# The front tier, over the same sosd.
FLOG="$TMP/sosfront.log"
"$TMP/sosfront" -addr 127.0.0.1:0 -backends "http://$ADDR" </dev/null >/dev/null 2>"$FLOG" &
FPID=$!
echo "$FPID" >"$TMP/sosfront.pid"
FADDR="$(wait_listening "$FLOG" "$FPID" sosfront)"

curl -fsS -X POST -d '{"mix":"Jsb(4,2,2)","seed":7,"samples":4}' \
    "http://$FADDR/v1/schedule" >/dev/null

FSCRAPE="$TMP/front_metrics.txt"
curl -fsS "http://$FADDR/metrics" >"$FSCRAPE"

go run ./scripts/promcheck -require \
    fleet_backend_requests_total,fleet_backend_failures_total,fleet_backend_ejections_total,fleet_failovers_total,fleet_hedges_total,fleet_hedge_wins_total,fleet_hedge_delay_seconds,fleet_coalesced_total,fleet_audits_total,fleet_audit_mismatches_total,fleet_integrity_failures_total,fleet_divergences_total,fleet_quarantines_total,fleet_healthy_backends,fleet_quarantined_backends \
    <"$FSCRAPE"

# One hedge-delay series per request class, no more (bounded cardinality).
for class in cached rank adaptive; do
    if ! grep -q "^fleet_hedge_delay_seconds{class=\"$class\"} " "$FSCRAPE"; then
        echo "FAIL: front /metrics has no hedge-delay series for class '$class'" >&2
        exit 1
    fi
done
if [ "$(grep -c '^fleet_hedge_delay_seconds{' "$FSCRAPE")" -ne 3 ]; then
    echo "FAIL: front /metrics has more than the three hedge-delay series" >&2
    exit 1
fi
# The benchmark reads this one by its exact, unlabelled name.
if ! grep -q '^fleet_hedges_total [0-9]' "$FSCRAPE"; then
    echo "FAIL: fleet_hedges_total is missing or grew labels" >&2
    exit 1
fi
STATZ="$(curl -fsS "http://$FADDR/statz")"
for class in cached rank adaptive; do
    if ! grep -q "\"hedge_delay_ms\":{[^}]*\"$class\":" <<<"$STATZ"; then
        echo "FAIL: front /statz has no hedge_delay_ms for class '$class': $STATZ" >&2
        exit 1
    fi
done

kill "$FPID" "$PID"
wait "$FPID" "$PID" 2>/dev/null || true
rm -f "$TMP/sosfront.pid" "$TMP/sosd.pid"
echo "PASS: sosd and sosfront /metrics expositions valid and complete" >&2
