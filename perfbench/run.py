#!/usr/bin/env python3
"""Serving benchmark: build, self-check, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload organic_glp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the libraries under src/) with CMake in
Release mode into the build directory (CARGO_TARGET_DIR when set, else
.bench_build), runs the statistics self-test, then runs one workload. The
last line of standard output is the run's JSON result. Exits non-zero,
without a result, when the build, the self-test or the run fails.
`--workload all` runs every workload in turn and prints one result line
per workload, prefixed with its name.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("organic_glp", "tenants_sharded", "wire_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    src = os.path.join(ROOT, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench_serve", "perfbench_stats_test"],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        log("statistics self-test failed")
        return 1

    if args.workload != "all":
        return run_workload(build_dir, args, args.workload, prefix="")
    status = 0
    for name in WORKLOADS:
        status |= run_workload(build_dir, args, name, prefix=name + " ")
    return status


def run_workload(build_dir, args, workload, prefix):
    cmd = [os.path.join(build_dir, "perfbench_serve"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = res.stdout.strip().splitlines()
    if not lines:
        log(f"{workload}: run printed no result (exit {res.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: run's last line is not JSON")
        return 1
    sys.stdout.write(prefix + json.dumps(result) + "\n")
    if res.returncode != 0 or not result.get("correct", False):
        log(f"{workload}: correctness check failed (exit {res.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
