#!/usr/bin/env python3
"""Build and run the HeteroGen benchmark from the root of a checkout.

    python3 perfbench/run.py --workload subjects|forum|service \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the libraries from
src/ in a Release build) under .bench_build/perfbench, then runs
hg_perfbench with the same arguments. Build output goes to stderr, so
the last line of stdout is hg_perfbench's JSON result. Exits non-zero,
with no result, when the build fails or hg_perfbench refuses to run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hg_perfbench")


def build():
    """Configure once, then build incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hg_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
