#!/usr/bin/env bash
# Benchmark build smoke: configures the standalone sbdbench package
# (bench/sbdbench, which compiles src/ itself, links the library targets by
# name and reads internal fields) into build-sbdbench/, builds it, and runs
# `sbdbench --quick --trace`: all four workloads for a few seconds, exit
# nonzero on a wrong verdict or a broken benchmark invariant. The traced
# pass must reproduce the untraced verdict stream and its exact counts
# (core.*, analysis.*, charset.*, solver.steps); its Chrome traces land in
# <build-dir>/trace and its per-run report in <build-dir>/sbdbench.json. A
# src/ change that breaks the benchmark fails here, not first at the
# benchmark gate.
#
# The result line (the last stdout line; keys prefixed by workload) must
# also show that each layer did its work:
#   - corpus_fresh.analysis.nodes_visited > 0 and .cache_hits > 0: every
#     query went through the pre-solve analyzer, and its memo carried
#     weight;
#   - smt_session.cache.hits > 0: the verdict cache served hits;
#   - every *.cache.revalidation_failures == 0 and dist_batch.dist.lost == 0.
#
# Usage: sbdbench_smoke.sh [build-dir]    (default build-sbdbench)
. "$(dirname "$0")/common.sh"

require python3 "needed to read the result line"

BUILD_DIR="${1:-build-sbdbench}"
cmake -S bench/sbdbench -B "$BUILD_DIR" \
  ${SBD_CMAKE_ARGS[@]+"${SBD_CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR"
"$BUILD_DIR/sbdbench" --quick --trace "$BUILD_DIR/trace" \
  --json "$BUILD_DIR/sbdbench.json" | tee "$BUILD_DIR/quick.out"

python3 - "$BUILD_DIR/quick.out" << 'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    metrics = json.loads(f.read().splitlines()[-1])["metrics"]
value = {k: m["value"] for k, m in metrics.items()}

POSITIVE = ("corpus_fresh.analysis.nodes_visited",
            "corpus_fresh.analysis.cache_hits", "smt_session.cache.hits")
ZERO = [k for k in value if k.endswith(".cache.revalidation_failures")]
ZERO.append("dist_batch.dist.lost")

failures = []
for key in POSITIVE:
    if value.get(key, 0) <= 0:
        failures.append(f"{key} = {value.get(key, 'missing')}, must be > 0")
for key in ZERO:
    if value.get(key, 1) != 0:
        failures.append(f"{key} = {value.get(key, 'missing')}, must be 0")
if failures:
    print("sbdbench-smoke: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print("sbdbench-smoke: ok (" +
      ", ".join(f"{k}={value[k]:g}" for k in list(POSITIVE) + ZERO) + ")")
EOF
