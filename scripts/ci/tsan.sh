#!/usr/bin/env bash
# ThreadSanitizer: the batch solver spawns the worker threads, and the obs
# registries and the slow-query log are the only shared-mutable-state
# structures they touch, so both test binaries run under TSan.
. "$(dirname "$0")/common.sh"

require ctest "ships with CMake"
sbd_configure build-tsan -DSBD_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
sbd_build build-tsan batch_solver_test obs_test
ctest --test-dir build-tsan -R 'BatchSolver|Obs|Metrics|SlowQueryLog' \
  --output-on-failure
