#!/usr/bin/env bash
# Run the full Benchmark* suite and snapshot the results as a committed
# baseline (BENCH_seed.json), so later PRs can diff performance against
# the tree state that produced it.
#
# Usage:
#   scripts/bench.sh            # run with -count=5, write BENCH_seed.json
#   COUNT=1 scripts/bench.sh    # quicker smoke run
#   OUT=/tmp/bench.json scripts/bench.sh  # write elsewhere (e.g. to compare)
#   scripts/bench.sh check BenchmarkAssessCold   # regression gate vs baseline
#   scripts/bench.sh allocs BenchmarkSelectiveColdScan  # allocation gate
#   scripts/bench.sh allocs BenchmarkEncodeAssess       # ... of each sub-benchmark
#
# Compare two snapshots with: go run golang.org/x/perf/cmd/benchstat (if
# available) or scripts/bench.sh plus any JSON diff; each record carries
# the benchmark name, iterations, and ns/op exactly as reported by go
# test -bench.
#
# `check <BenchmarkName>` reruns just that benchmark and fails when its
# best (minimum) ns/op exceeds the baseline's best by more than
# BENCH_CHECK_PCT percent (default 50 — generous because CI hardware
# differs from the machine that wrote the baseline; tighten locally,
# e.g. BENCH_CHECK_PCT=3 for an overhead check on the baseline host).
#
# `ratio <BenchmarkName> <metric> <min>` reruns a benchmark that reports
# a custom metric (e.g. BenchmarkShardedSpeedup's "speedup", a paired
# within-iteration ratio that is host-speed independent) and fails when
# the best reported value falls below <min> (for any sub-benchmark, when
# it has them):
#   scripts/bench.sh ratio BenchmarkShardedSpeedup speedup 2.0
#
# `allocs <BenchmarkName>` reruns with -benchmem and fails when the best
# (minimum) allocs/op exceeds the baseline's best by more than
# BENCH_ALLOC_PCT percent (default 20); a benchmark with sub-benchmarks
# is checked sub-benchmark by sub-benchmark. Allocation counts barely vary
# across hosts, so this gate is much tighter than the ns/op one — it
# catches scratch-reuse regressions that wall-clock noise would hide.
set -euo pipefail

cd "$(dirname "$0")/.."
COUNT="${COUNT:-5}"
OUT="${OUT:-BENCH_seed.json}"
BENCHTIME="${BENCHTIME:-1x}"
BASELINE="${BASELINE:-BENCH_seed.json}"
BENCH_CHECK_PCT="${BENCH_CHECK_PCT:-50}"
BENCH_ALLOC_PCT="${BENCH_ALLOC_PCT:-20}"

if [[ "${1:-}" == "allocs" ]]; then
    name="${2:?usage: scripts/bench.sh allocs <BenchmarkName>}"
    raw="$(go test -run '^$' -bench "^${name}\$" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem ./... 2>&1 | grep -E '^Benchmark')"
    RAW="$raw" python3 - "$BASELINE" "$name" "$BENCH_ALLOC_PCT" <<'EOF'
import json, os, sys

baseline_path, name, pct = sys.argv[1], sys.argv[2], float(sys.argv[3])

# The benchmark itself, or each of its sub-benchmarks (name/case), which
# are gated one by one against their own baseline records.
def case(full):
    base = full.split("-")[0]
    return base if base == name or base.startswith(name + "/") else None

base_vals, cur_vals = {}, {}
with open(baseline_path) as f:
    for r in json.load(f):
        if case(r["name"]) and "allocs_per_op" in r:
            base_vals.setdefault(case(r["name"]), []).append(r["allocs_per_op"])
for line in os.environ["RAW"].splitlines():
    parts = line.split()
    if parts and case(parts[0]):
        for value, unit in zip(parts[2::2], parts[3::2]):
            if unit == "allocs/op":
                cur_vals.setdefault(case(parts[0]), []).append(float(value))
if not cur_vals:
    sys.exit(f"allocs: {name} produced no allocs/op samples")
failed = False
for c in sorted(cur_vals):
    if c not in base_vals:
        sys.exit(f"allocs: {c} has no allocs_per_op in {baseline_path} "
                 "(regenerate with scripts/bench.sh)")
    base, cur = min(base_vals[c]), min(cur_vals[c])
    limit = base * (1 + pct / 100.0)
    status = "ok" if cur <= limit else "REGRESSION"
    print(f"{c}: baseline {base:.0f} allocs/op, current {cur:.0f} allocs/op "
          f"(limit {limit:.0f}, +{pct:.0f}%) -> {status}")
    failed = failed or cur > limit
if failed:
    sys.exit(1)
EOF
    exit 0
fi

if [[ "${1:-}" == "check" ]]; then
    name="${2:?usage: scripts/bench.sh check <BenchmarkName>}"
    raw="$(go test -run '^$' -bench "^${name}\$" -benchtime "$BENCHTIME" -count "$COUNT" ./... 2>&1 | grep -E '^Benchmark')"
    RAW="$raw" python3 - "$BASELINE" "$name" "$BENCH_CHECK_PCT" <<'EOF'
import json, os, sys

baseline_path, name, pct = sys.argv[1], sys.argv[2], float(sys.argv[3])

# Bench names carry a -GOMAXPROCS suffix (BenchmarkAssessCold-8).
def matches(full):
    return full.split("-")[0] == name

with open(baseline_path) as f:
    base_vals = [r["ns_per_op"] for r in json.load(f)
                 if matches(r["name"]) and "ns_per_op" in r]
base = min(base_vals) if base_vals else None

cur_vals = []
for line in os.environ["RAW"].splitlines():
    parts = line.split()
    if parts and matches(parts[0]):
        for value, unit in zip(parts[2::2], parts[3::2]):
            if unit == "ns/op":
                cur_vals.append(float(value))
cur = min(cur_vals) if cur_vals else None
if base is None:
    sys.exit(f"check: {name} not found in {baseline_path}")
if cur is None:
    sys.exit(f"check: {name} produced no ns/op samples")
delta = 100.0 * (cur - base) / base
status = "ok" if delta <= pct else "REGRESSION"
print(f"{name}: baseline {base:.0f} ns/op, current {cur:.0f} ns/op, "
      f"delta {delta:+.1f}% (limit +{pct:.0f}%) -> {status}")
if delta > pct:
    sys.exit(1)
EOF
    exit 0
fi

if [[ "${1:-}" == "ratio" ]]; then
    name="${2:?usage: scripts/bench.sh ratio <BenchmarkName> <metric> <min>}"
    metric="${3:?usage: scripts/bench.sh ratio <BenchmarkName> <metric> <min>}"
    minval="${4:?usage: scripts/bench.sh ratio <BenchmarkName> <metric> <min>}"
    raw="$(go test -run '^$' -bench "^${name}\$" -benchtime "${RATIO_BENCHTIME:-12x}" -count "${RATIO_COUNT:-3}" ./... 2>&1 | grep -E '^Benchmark')"
    RAW="$raw" python3 - "$name" "$metric" "$minval" <<'EOF'
import os, sys

name, metric, minval = sys.argv[1], sys.argv[2], float(sys.argv[3])

# The benchmark itself, or each of its sub-benchmarks (name/case): the
# floor holds for every one of them.
def case(full):
    base = full.split("-")[0]
    return base if base == name or base.startswith(name + "/") else None

vals = {}
for line in os.environ["RAW"].splitlines():
    parts = line.split()
    if parts and case(parts[0]):
        for value, unit in zip(parts[2::2], parts[3::2]):
            if unit == metric:
                vals.setdefault(case(parts[0]), []).append(float(value))
if not vals:
    sys.exit(f"ratio: {name} reported no {metric} samples")
failed = False
for c in sorted(vals):
    best = max(vals[c])
    status = "ok" if best >= minval else "BELOW FLOOR"
    print(f"{c}: best {metric} {best:.3f} over {len(vals[c])} runs "
          f"(floor {minval:.2f}) -> {status}")
    failed = failed or best < minval
if failed:
    sys.exit(1)
EOF
    exit 0
fi

# -benchtime=1x: the paper-replication benchmarks are macro-benchmarks
# (full experiment tables); one iteration per -count repetition keeps the
# suite minutes-scale while -count=5 still yields a spread.
raw="$(go test -run '^$' -bench . -benchtime "$BENCHTIME" -count "$COUNT" -benchmem ./... 2>&1 | grep -E '^Benchmark')"

# Render the raw `go test -bench` lines as a JSON array of
# {name, iterations, ns_per_op, B_per_op, allocs_per_op, extras...}
# records (-benchmem supplies the allocation columns).
RAW="$raw" python3 - "$OUT" <<'EOF'
import json, os, sys

out = []
for line in os.environ["RAW"].splitlines():
    parts = line.split()
    if len(parts) < 3 or not parts[0].startswith("Benchmark"):
        continue
    rec = {"name": parts[0], "iterations": int(parts[1])}
    # Remaining fields come in value/unit pairs: 123456 ns/op 42 extra/op …
    for value, unit in zip(parts[2::2], parts[3::2]):
        key = unit.replace("/", "_per_").replace("-", "_")
        try:
            rec[key] = float(value)
        except ValueError:
            rec[key] = value
    out.append(rec)

with open(sys.argv[1], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {len(out)} benchmark records to {sys.argv[1]}")
EOF
