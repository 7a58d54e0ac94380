#!/usr/bin/env bash
# The observability layer must compile out cleanly: the affected suites
# must still pass with every counter bump and capture site stripped
# (-DSBD_OBS=OFF).
. "$(dirname "$0")/common.sh"

require ctest "ships with CMake"
sbd_configure build-obs0 -DSBD_OBS=OFF
sbd_build build-obs0 solver_test obs_test batch_solver_test smt_test \
  audit_test
ctest --test-dir build-obs0 -R 'Solver|Obs|Metrics|Batch|Smt|Audit' \
  --output-on-failure
