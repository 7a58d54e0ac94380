#!/usr/bin/env bash
# Benchmark build smoke: configures the standalone sbdbench package
# (bench/sbdbench, which compiles src/ itself, links the library targets by
# name and reads internal fields) into build-sbdbench/, builds it, and runs
# `sbdbench --quick --trace`: all four workloads for a few seconds, exit
# nonzero on a wrong verdict or a broken benchmark invariant. The traced
# pass must reproduce the untraced verdict stream and its exact counts
# (core.*, analysis.*, charset.*, solver.steps); its Chrome traces land in
# <build-dir>/trace. A src/ change that breaks the benchmark fails here,
# not first at the benchmark gate.
#
# Usage: sbdbench_smoke.sh [build-dir]    (default build-sbdbench)
. "$(dirname "$0")/common.sh"

BUILD_DIR="${1:-build-sbdbench}"
cmake -S bench/sbdbench -B "$BUILD_DIR" \
  ${SBD_CMAKE_ARGS[@]+"${SBD_CMAKE_ARGS[@]}"}
cmake --build "$BUILD_DIR"
"$BUILD_DIR/sbdbench" --quick --trace "$BUILD_DIR/trace"
