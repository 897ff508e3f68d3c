#!/usr/bin/env python3
"""Build and run the MultiNoC benchmark driver.

    python3 mnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mnbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
mnbench/ (which compiles the repository's src/ libraries) into
.bench_build/ with CMake; later calls only re-check the build. The
driver's JSON result is the last line of stdout; build logs go to stderr.
With --trace 1 the span file is written to .bench_build/traces/.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "mnbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "mnbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("noc_uniform_16x16", "paper_apps_2x2", "shared_msi_3x3",
             "serve_mixed")


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("mnbench: '%s' failed with code %d"
                 % (" ".join(cmd), done.returncode))


def build(target):
    if shutil.which("cmake") is None:
        sys.exit("mnbench: cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    return os.path.join(BUILD_DIR, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the output checks")
    args = ap.parse_args()

    if args.self_test:
        return subprocess.run([build("mnbench_check_tests")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build("mnbench")
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--trace-dir", TRACE_DIR,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
