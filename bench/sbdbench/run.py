#!/usr/bin/env python3
"""Builds sbdbench from source (Release) and runs it.

Run from the repository root:

    python3 bench/sbdbench/run.py --workload corpus_fresh --seed 2021 \
        --seconds 15 --trace 0

`--trace 1` adds the traced pass and reports the per-layer metrics instead
of the end-to-end ones; the layer tables and Chrome traces go to
.bench_build/trace/. Every other flag (--workload, --seed, --seconds,
--runs, --json, --quick, --compare) is passed to sbdbench unchanged.
The build tree is .bench_build/sbdbench.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "sbdbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")


def build():
    """Configures once, then lets the build tool bring sbdbench up to date.
    Build output goes to stderr: stdout carries only sbdbench's report."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "sbdbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", choices=["0", "1"], default="0",
                        help="1: traced pass, per-layer metrics")
    args, rest = parser.parse_known_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: cannot build sbdbench: {err}", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "sbdbench")] + rest
    if args.trace == "1":
        cmd += ["--trace", TRACE_DIR]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
