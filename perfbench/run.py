#!/usr/bin/env python3
"""Build and run the perfbench host-speed benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <lmbench_riscv|apps_x86|trust_stack|all> \
        --seed N --seconds S --trace <0|1>

The first call configures and builds the simulator libraries and the
perfbench binary under .bench_build/perfbench (RelWithDebInfo, the
repository's default); later calls only re-check the build. Build
output goes to standard error, so the last line of standard output is
the binary's one-line JSON result. With --trace 1 the recorded spans
are written to .bench_build/traces/<workload>-seed<N>.json.

Exits non-zero without a result when the simulator sources are absent,
the build fails, or the binary does not finish in time.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the binary; returns its path."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-insts", type=int,
        help="guest instruction budget per simulation run (the "
             "benchmark's own test shrinks it to force a failure)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.max_insts is not None:
        cmd += ["--max-insts", str(args.max_insts)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
