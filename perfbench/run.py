#!/usr/bin/env python3
"""Build and run the replay benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The benchmark is built from the
checkout's sources with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); build output goes to stderr. The
program's output is passed through, so the last line of stdout is the
JSON result. A file-backed workload keeps its store in a fresh
directory under the build directory, removed again on every exit path.
The exit code is the program's: non-zero when the build fails or any
correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 1

    store_dir = tempfile.mkdtemp(prefix="store-", dir=build_dir)
    cmd = [os.path.join(build_dir, "replay_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--store-dir", store_dir]
    try:
        sys.stdout.flush()
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
        return done.returncode if done.returncode >= 0 else 1
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
