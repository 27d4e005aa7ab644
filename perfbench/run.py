#!/usr/bin/env python3
"""Build and run the VisualPrint benchmark of record.

Run from the root of a checkout:

    python3 perfbench/run.py --workload walk|fleet|churn --seed N \
        --seconds S --trace 0|1

Builds the libraries and the perfbench program from source into
.bench_build/ (configured once, then rebuilt incrementally), runs one
workload, and passes the program's output through: the last stdout line is
the JSON result. Build logs go to stderr. Exits nonzero, printing no result,
when the sources are missing, the build fails, or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    # A configure cut short leaves a cache but no build files: redo it.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output must not reach stdout: its last line is the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--out", OUT]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
