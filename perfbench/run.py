#!/usr/bin/env python3
"""PhotonLoop benchmark runner.

Builds the perfbench package (perfbench/CMakeLists.txt, which compiles
the program from ../src) into .bench_build/perfbench, then runs one
workload and prints its result. Run from the repository root:

    python3 perfbench/run.py --workload cold_dse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 [--trace 1]
    python3 perfbench/run.py --self-test

The last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics" (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). Build output and the human-readable report go
to stderr. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["cold_dse", "warm_hits", "mixed_routed"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout lines)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def valid_result(line):
    """The result line parses and carries the result keys."""
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (sorted(result) == ["attempted", "correct", "failed", "metrics"]
            and isinstance(result["metrics"], dict)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print each result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("one of --workload, --all or --self-test is required")

    if not build():
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr).returncode

    workloads = WORKLOADS if args.all else [args.workload]
    for workload in workloads:
        code, lines = run_one(workload, args.seed, args.seconds,
                              args.trace == 1)
        if code != 0 or not lines or not valid_result(lines[-1]):
            print("perfbench: %s failed (exit %d)" % (workload, code),
                  file=sys.stderr)
            return 1
        if args.all:
            result = json.loads(lines[-1])
            print("== %s  correct=%s attempted=%d failed=%d" % (
                workload, result["correct"], result["attempted"],
                result["failed"]), file=sys.stderr)
            for name, m in result["metrics"].items():
                print("   %-32s %16.6g %s" % (name, m["value"], m["unit"]),
                      file=sys.stderr)
        for line in lines:
            print(line)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
