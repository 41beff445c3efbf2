#!/usr/bin/env bash
# The one command of the benchmark. It builds the program under
# .bench_build/ (with the Go build cache there too, so nothing is written
# outside the checkout) and then either
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       runs one workload once and prints the result object as the last
#       line (what BENCHMARK.json's command does; any other flag of the
#       program, such as -smoke or -compare A B, passes through too), or
#
#   benchmark/run.sh
#       runs the suite: all five workloads untraced, then traced, writing
#       $BENCH_OUT/<workload>.json, $BENCH_OUT/trace_<workload>.json and
#       all records together as $BENCH_OUT/suite.json, the input of
#       -compare.
#
# Suite tunables (environment):
#   BENCH_SEED     seed of data and statements (default 1)
#   BENCH_SECONDS  timed-phase length (default: run_seconds of BENCHMARK.json)
#   BENCH_RUNS     untraced runs per workload, for spreads (default 1)
#   BENCH_OUT      output directory (default benchmark/out)
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
bin="$build/assess-benchmark"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and its env
# file inside the checkout as well.
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOFLAGS= go build -C benchmark -o "$bin" .

if [[ $# -gt 0 ]]; then
    exec "$bin" "$@"
fi

seed="${BENCH_SEED:-1}"
seconds="${BENCH_SECONDS:-$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')}"
runs="${BENCH_RUNS:-1}"
out="${BENCH_OUT:-benchmark/out}"
workloads=(cold_resident warm_dashboard cold_segment append_segment cold_sharded)

mkdir -p "$out"
for w in "${workloads[@]}"; do
    rm -f "$out/$w.json" "$out/trace_$w.json"
done
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        n=1
        if [[ $trace -eq 0 ]]; then n=$runs; fi
        for _ in $(seq "$n"); do
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                -out "$out/$w.json" -out-dir "$out" | sed '$d'
        done
    done
done
for w in "${workloads[@]}"; do cat "$out/$w.json"; done >"$out/suite.json"
echo "results in $out/ (compare two suites with: benchmark/run.sh -compare A/suite.json B/suite.json)"
