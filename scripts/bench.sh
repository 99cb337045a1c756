#!/usr/bin/env bash
# bench.sh — snapshot the quick benchmark suite for cross-PR comparison.
#
# Runs the substrate micro-benchmarks (plus anything matching $BENCH_PATTERN)
# and writes BENCH_<date>.json in the repo root: an array of
# {name, ns_op, bytes_op, allocs_op} records, newest file per day.
#
# Usage:
#   scripts/bench.sh                    # default quick substrate suite
#   BENCH_PATTERN='.' scripts/bench.sh  # everything (slow)
#   BENCH_TIME=2s scripts/bench.sh      # longer per-benchmark budget
set -euo pipefail

cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-Dijkstra|MSTKruskal|EquilibriumCheck|LCA400|Theorem6Enforce|BroadcastLP|WaterFill|SwapUpdate|SwapRebuild|SwapEval|BestResponse|SwapDynamics|SteinerTree|AnalyzeTrees|Sweep|WeightedPNE|RowGen|WilsonUST|Simplex|LPResolve|LPCold|LPSparse|LPDense|ServeSNE|ServeLoad}"
TIME="${BENCH_TIME:-1s}"
OUT="${BENCH_OUT:-BENCH_$(date +%Y-%m-%d).json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# The LP solver micro-benchmarks (Simplex*/LPResolve*/LPCold*) live in
# internal/lp; everything else is in the root harness package.
echo "running: go test -run=NONE -bench='${PATTERN}' -benchtime=${TIME} -benchmem . ./internal/lp" >&2
go test -run=NONE -bench="${PATTERN}" -benchtime="${TIME}" -benchmem . ./internal/lp | tee "$RAW" >&2

# The serve load benchmarks report custom req/s and p99-ms metrics
# (loadgen throughput and tail latency); they ride along as extra JSON
# fields that benchdiff ignores but humans can diff across PRs.
awk '
  /^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    ns = ""; bytes = "0"; allocs = "0"; rps = ""; p99 = ""
    for (i = 2; i <= NF; i++) {
      if ($(i+1) == "ns/op")     ns = $i
      if ($(i+1) == "B/op")      bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
      if ($(i+1) == "req/s")     rps = $i
      if ($(i+1) == "p99-ms")    p99 = $i
    }
    if (ns == "") next
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"ns_op\": %s, \"bytes_op\": %s, \"allocs_op\": %s", name, ns, bytes, allocs
    if (rps != "") printf ", \"rps\": %s", rps
    if (p99 != "") printf ", \"p99_ms\": %s", p99
    printf "}"
  }
  BEGIN { printf "[\n" }
  END   { printf "\n]\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
