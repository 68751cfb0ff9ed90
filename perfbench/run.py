#!/usr/bin/env python3
"""Build and run the QR-DTM benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/qrbench.exe with dune into .bench_build/ (kept apart from
the developer's _build/), then runs it with the same arguments.  The
program prints human-readable lines and, last, one JSON result line.
Traced runs also write their per-step spans to .bench_build/spans/.
Exits non-zero, without a result line, if the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/qrbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    if not os.path.isfile("perfbench/run.py"):
        fail("run from the root of the checkout")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", TARGET],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "qrbench.exe")
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--spans-dir", os.path.join(BUILD_DIR, "spans")]
    try:
        run = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
