#!/usr/bin/env python3
"""Builds the query-path benchmark from the checkout's sources and runs it.

    python3 qbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and compiles the
library and the benchmark (qbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. Build output
goes to stderr. The benchmark binary's stdout passes through unchanged: its
last line is the result object. Exits non-zero, printing no result, when
the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("qbench: no library sources at %s/src" % ROOT, file=sys.stderr)
        return None
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "qbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "qbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(target), "qbench"))
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
