#!/usr/bin/env python3
"""Builds and runs the serve-stack benchmark.

    python3 perfbench/run.py --workload wire_single|wire_fanin|market_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The controller library and the benchmark are
built from source (Release) into .bench_build/perfbench; the first run
configures and compiles, later runs only check that the build is current.
The answer-oracle self-test runs before every measurement. The last line of
standard output is the benchmark's JSON result; the exit code is non-zero
when the build, the self-test or any correctness check fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build chatter to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench", "perfbench_oracle_test"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_single", "wire_fanin", "market_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([str(BUILD / "perfbench_oracle_test")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        print("perfbench: oracle self-test failed", file=sys.stderr)
        return 1
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
