#!/usr/bin/env bash
# Runs the benchmark once per seed 1..n on each workload and appends one
# JSON line per run to a set file, for "perfbench steady" to compare:
#
#   bash perfbench/sets.sh setA.jsonl 10
#   bash perfbench/sets.sh setB.jsonl 10
#   bash perfbench/run.sh steady setA.jsonl setB.jsonl
set -euo pipefail

out="$1"
n="$2"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
log="$out.log"
# Seeds outermost, so a slow phase of a shared host spreads over all
# workloads instead of landing on one.
for seed in $(seq 1 "$n"); do
  for w in paper_pipeline torus_alltoallv sweep_service; do
    start=$SECONDS
    stdout="$(bash "$root/perfbench/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$log")"
    printf '%s\n' "$stdout" >>"$log"
    env="$(printf '%s\n' "$stdout" | grep '^{"env"' | sed 's/^{"env"://; s/}$//')"
    result="$(printf '%s\n' "$stdout" | tail -n 1)"
    printf '{"workload":"%s","seed":%d,"env":%s,"result":%s}\n' "$w" "$seed" "$env" "$result" >>"$out"
    echo "$w seed $seed ($((SECONDS - start)) s): $result"
  done
done
