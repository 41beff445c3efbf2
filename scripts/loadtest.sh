#!/usr/bin/env bash
# Load-test the serving layer end to end: start assessd with admission
# control on, sweep closed-loop concurrency and open-loop arrival rates
# with cmd/loadgen, and print the
# latency-vs-scale tables (p50/p95/p99, throughput, shed counts).
#
# Usage:
#   scripts/loadtest.sh            # full sweep (~1 min)
#   SMOKE=1 scripts/loadtest.sh    # CI smoke: tiny sweep, seconds-scale
#
# Tunables (environment):
#   ROWS          sales fact rows (default 200000; SMOKE shrinks it)
#   MAX_QUEUE     admission queue depth (default 256)
#   ADMIT_SLOTS   admission execution slots (default 16)
#   ADDR          listen address (default 127.0.0.1:18321)
#   SELECTIVITY   fraction of narrow-predicate statements in the mix
#                 (default 0.5; exercises late materialization)
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${ADDR:-127.0.0.1:18321}"
SELECTIVITY="${SELECTIVITY:-0.5}"
MAX_QUEUE="${MAX_QUEUE:-256}"
ADMIT_SLOTS="${ADMIT_SLOTS:-16}"
if [[ -n "${SMOKE:-}" ]]; then
    ROWS="${ROWS:-20000}"
    WORKERS="1,4"
    PER_WORKER=25
    RATES="100"
    DURATION=2s
else
    ROWS="${ROWS:-200000}"
    WORKERS="1,2,4,8,16"
    PER_WORKER=200
    RATES="50,100,200,400"
    DURATION=5s
fi

bin="$(mktemp -d)"
trap 'kill "${server_pid:-}" 2>/dev/null || true; rm -rf "$bin"' EXIT

echo "== building assessd and loadgen"
go build -o "$bin/assessd" ./cmd/assessd
go build -o "$bin/loadgen" ./cmd/loadgen

echo "== starting assessd on $ADDR (rows=$ROWS max-queue=$MAX_QUEUE)"
"$bin/assessd" -addr "$ADDR" -data sales -rows "$ROWS" \
    -max-queue "$MAX_QUEUE" -admit-slots "$ADMIT_SLOTS" \
    -slow-query-ms 0 2>"$bin/assessd.log" &
server_pid=$!

for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "assessd exited during startup:" >&2
        cat "$bin/assessd.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null

echo
echo "== closed loop (workers back-to-back; capacity scaling)"
"$bin/loadgen" -url "http://$ADDR" -mode closed -workers "$WORKERS" -per-worker "$PER_WORKER" -selectivity "$SELECTIVITY"

echo
echo "== open loop (Poisson arrivals; latency under offered load)"
"$bin/loadgen" -url "http://$ADDR" -mode open -rates "$RATES" -duration "$DURATION" -selectivity "$SELECTIVITY"

echo
echo "== scheduler counters"
curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
sched = json.load(sys.stdin).get("scheduler") or {}
print(json.dumps(sched, indent=2))
'

echo
echo "== sharded: restart with a 2-worker in-process scatter-gather cluster"
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
"$bin/assessd" -addr "$ADDR" -data sales -rows "$ROWS" \
    -cluster local:2 -dist-policy partial \
    -max-queue "$MAX_QUEUE" -admit-slots "$ADMIT_SLOTS" \
    -slow-query-ms 0 2>"$bin/assessd-sharded.log" &
server_pid=$!
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "sharded assessd exited during startup:" >&2
        cat "$bin/assessd-sharded.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null

# -targets round-robins the generator across coordinator handles (here
# the same coordinator twice, doubling per-target concurrency).
"$bin/loadgen" -targets "http://$ADDR,http://$ADDR" \
    -mode closed -workers "$WORKERS" -per-worker "$PER_WORKER" -selectivity "$SELECTIVITY"

echo
echo "== shard coordinator counters"
curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
dist = json.load(sys.stdin).get("dist") or {}
print(json.dumps(dist, indent=2))
if not dist.get("fanouts"):
    sys.exit("no scatter-gather fanouts recorded; distribution inactive")
'
