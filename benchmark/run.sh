#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--traced | --trace 0|1]
#                    [--quick] [--repeat N]
#
# Builds the benchmark (release, offline) and runs one workload — or, with
# no --workload, all four. Every metric is printed by name with its unit and
# sample count; the last line of standard output is the result object of the
# (last) run. Each run writes benchmark/out/result-<workload>[-traced].json;
# a traced run also writes benchmark/out/trace-<workload>.json. With
# --repeat N each workload runs N times on seeds N, N+1, … and the results
# are collected into benchmark/out/set[-traced].json for `compare`.
# --quick is a < 10 s smoke of all four. Exits non-zero if a build fails or
# any response or crash-restart check does.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(monitor_sweep tree_churn job_churn fault_storm)
workload=""
seed=1
seconds=""
trace=0
quick=""
repeat=1

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    --quick) quick="--quick"; shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  if [ -n "$quick" ]; then seconds=0.7; else seconds=22; fi
fi
if [ -n "$workload" ]; then workloads=("$workload"); fi

# Build output goes to standard error: the result object stays last on
# standard output. A relative CARGO_TARGET_DIR is relative to where this
# script was started, which is also where cargo is started.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/ofmf-benchmark"

out="$here/out"
mkdir -p "$out"
suffix=""
if [ "$trace" = 1 ]; then suffix="-traced"; fi
set_file="$out/set$suffix.json"
if [ "$repeat" -gt 1 ]; then printf '[' > "$set_file"; fi

status=0
first=1
for w in "${workloads[@]}"; do
  for ((i = 0; i < repeat; i++)); do
    "$bin" run --workload "$w" --seed $((seed + i)) --seconds "$seconds" --trace "$trace" $quick --out "$out" || status=1
    if [ "$repeat" -gt 1 ] && [ -f "$out/result-$w$suffix.json" ]; then
      if [ "$first" = 0 ]; then printf ',' >> "$set_file"; fi
      cat "$out/result-$w$suffix.json" >> "$set_file"
      first=0
    fi
  done
done
if [ "$repeat" -gt 1 ]; then printf ']\n' >> "$set_file"; fi
exit $status
