#!/usr/bin/env python3
"""Builds the benchmark program and griftd from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental; its log goes to standard error. Every other argument is
passed to the benchmark program (see perfbench.cpp), whose last line of
standard output is the run's JSON result. The exit status is the program's,
or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the program and griftd; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        return 1
    # Relative, so griftd's Unix socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, "work"))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--griftd", os.path.join(build_dir, "grift", "tools", "griftd"),
           "--work-dir", work_dir] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
