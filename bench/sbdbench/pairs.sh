#!/usr/bin/env bash
# Runs PAIRS pairs of two sbdbench builds, alternating which one runs first
# in each pair, then compares them with `sbdbench --compare`: a gain needs
# wins in at least 9 of 10 pairs and a median shift larger than the
# parent's own quartile spread; a median worse than the bound is a
# regression (exit 1).
#
# usage: pairs.sh PARENT_SBDBENCH CHANGE_SBDBENCH PAIRS [sbdbench flags...]
# e.g.   bench/sbdbench/pairs.sh ../parent/.bench_build/sbdbench/sbdbench \
#            .bench_build/sbdbench/sbdbench 10 --workload corpus_fresh \
#            --seconds 15
set -euo pipefail

parent=$1 change=$2 pairs=$3
shift 3
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

parent_runs="" change_runs=""
for i in $(seq "$pairs"); do
  order="parent change"
  if (( i % 2 == 0 )); then order="change parent"; fi
  for side in $order; do
    bin=$parent
    if [ "$side" = change ]; then bin=$change; fi
    "$bin" "$@" --json "$dir/$side-$i.json" > /dev/null
  done
  parent_runs+="${parent_runs:+,}$dir/parent-$i.json"
  change_runs+="${change_runs:+,}$dir/change-$i.json"
done
"$change" --compare "$parent_runs" "$change_runs"
