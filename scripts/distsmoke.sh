#!/usr/bin/env bash
# Multi-process distribution smoke: start two `assessd -cluster
# worker:I/2` shard processes and a coordinator pointed at them with
# `-cluster URL,URL`, run a small query/assess suite against the
# coordinator and against a solo (unsharded) assessd, and require
# identical answers on the integer-valued quantity measure. Then kill
# one worker and require the coordinator to keep answering exactly via
# its local-fallback scan (recorded in /stats), never hanging and never
# serving wrong numbers.
#
# Usage:
#   scripts/distsmoke.sh
#
# Tunables (environment):
#   ROWS   sales fact rows (default 20000)
set -euo pipefail

cd "$(dirname "$0")/.."

ROWS="${ROWS:-20000}"
W0="${W0:-127.0.0.1:18411}"
W1="${W1:-127.0.0.1:18412}"
COORD="${COORD:-127.0.0.1:18413}"
SOLO="${SOLO:-127.0.0.1:18414}"

bin="$(mktemp -d)"
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$bin"
}
trap cleanup EXIT

echo "== building assessd"
go build -o "$bin/assessd" ./cmd/assessd

wait_healthy() { # addr log
    local addr="$1" log="$2" i
    for i in $(seq 1 100); do
        if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "server on $addr never became healthy:" >&2
    cat "$log" >&2
    return 1
}

echo "== starting 2 shard workers + coordinator + solo reference"
"$bin/assessd" -addr "$W0" -data sales -rows "$ROWS" \
    -cluster worker:0/2 2>"$bin/w0.log" &
w0_pid=$!; pids+=("$w0_pid")
"$bin/assessd" -addr "$W1" -data sales -rows "$ROWS" \
    -cluster worker:1/2 2>"$bin/w1.log" &
w1_pid=$!; pids+=("$w1_pid")
wait_healthy "$W0" "$bin/w0.log"
wait_healthy "$W1" "$bin/w1.log"

"$bin/assessd" -addr "$COORD" -data sales -rows "$ROWS" \
    -cluster "http://$W0,http://$W1" -dist-policy fail \
    -shard-timeout 10s -slow-query-ms 0 2>"$bin/coord.log" &
pids+=("$!")
"$bin/assessd" -addr "$SOLO" -data sales -rows "$ROWS" \
    -slow-query-ms 0 2>"$bin/solo.log" &
pids+=("$!")
wait_healthy "$COORD" "$bin/coord.log"
wait_healthy "$SOLO" "$bin/solo.log"

# Integer-valued quantity only: cross-process float sums could differ
# by ULPs with shard merge order; quantity sums are exact.
statements=(
    "with SALES by product get quantity"
    "with SALES by country, month get quantity"
    "with SALES for country = 'Italy' by product get quantity"
    "with SALES for category = 'Fruit' by type, year get quantity"
)
assess_stmt="with SALES for country = 'Italy' by product, country assess quantity against country = 'France' using difference(quantity, benchmark.quantity) labels quartiles"

echo "== comparing coordinator vs solo on ${#statements[@]} queries"
compare() { # path statement
    local path="$1" stmt="$2"
    local a b
    a="$(curl -fsS -X POST "http://$COORD$path" -H 'Content-Type: application/json' \
        -d "{\"statement\": \"$stmt\"}")"
    b="$(curl -fsS -X POST "http://$SOLO$path" -H 'Content-Type: application/json' \
        -d "{\"statement\": \"$stmt\"}")"
    A="$a" B="$b" STMT="$stmt" python3 - <<'EOF'
import json, os, sys

def canon(raw):
    rows = json.loads(raw).get("rows") or []
    return sorted(json.dumps(r, sort_keys=True) for r in rows)

a, b = canon(os.environ["A"]), canon(os.environ["B"])
if a != b:
    sys.exit(f"coordinator and solo diverge on: {os.environ['STMT']}\n"
             f"coordinator: {a[:5]}\nsolo:        {b[:5]}")
if not a:
    sys.exit(f"empty result set for: {os.environ['STMT']}")
EOF
}
for stmt in "${statements[@]}"; do
    compare /query "$stmt"
    echo "  ok: $stmt"
done
compare /assess "$assess_stmt"
echo "  ok: $assess_stmt"

echo "== coordinator shard snapshot"
curl -fsS "http://$COORD/stats" | python3 -c '
import json, sys
dist = json.load(sys.stdin).get("dist") or {}
if not dist.get("fanouts"):
    sys.exit("no scatter-gather fanouts recorded; distribution inactive")
tables = {t["fact"]: len(t["shards"]) for t in dist.get("tables") or []}
print(json.dumps({"fanouts": dist["fanouts"], "tables": tables}, indent=2))
if tables.get("SALES") != 2:
    sys.exit(f"SALES not sharded 2 ways: {tables}")
'

echo "== killing worker 1; coordinator must fall back locally, exactly"
kill "$w1_pid"
wait "$w1_pid" 2>/dev/null || true
# A statement the earlier suite never asked, so neither side can serve
# it from the query cache — this scan really exercises the dead shard.
compare /query "with SALES by gender, country get quantity"
echo "  ok (exact under worker loss): with SALES by gender, country get quantity"

curl -fsS "http://$COORD/stats" | python3 -c '
import json, sys
dist = json.load(sys.stdin).get("dist") or {}
degraded = sum(s.get("fallbacks", 0) + s.get("redispatches", 0)
               for t in dist.get("tables") or [] for s in t.get("shards") or [])
print(f"degraded-path scans (fallbacks+redispatches): {degraded}")
if not degraded:
    sys.exit("worker was killed but no fallback/redispatch was recorded")
'

echo "distsmoke: ok"
