#!/usr/bin/env bash
# Warning hardening: src/ must compile clean under
# -Wall -Wextra -Wshadow -Wconversion -Werror, in two legs: the default
# build type and Release.
. "$(dirname "$0")/common.sh"

sbd_configure build-werror -DSBD_WERROR=ON
sbd_build build-werror

# The Release leg: some warnings (GCC 12's -Wrestrict on inlined
# std::string concatenation) only appear once -O3 inlines.
sbd_configure build-werror-release -DCMAKE_BUILD_TYPE=Release -DSBD_WERROR=ON
sbd_build build-werror-release
