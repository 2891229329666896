#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload embedded-hot --seed 1 --seconds 30 --trace 0

The build (CMake, Release) goes to .bench_build/perfbench under the
checkout root and is reused by later runs. Build output goes to stderr;
stdout carries the benchmark's own report, whose last line is the JSON
result. With --trace 1 the traced rounds' spans are written to
.bench_build/spans/<workload>-seed<N>.jsonl. Exits non-zero when the
sources are missing, the build fails, or a correctness check fails.
"""
import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("embedded-hot", "cluster-tcp", "replicated-sim")
BUILD_TIMEOUT_S = 850
# Beyond --seconds a run may spend this long finishing its last round,
# its final audit and its teardown.
RUN_GRACE_S = 120


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no mvtl sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as exc:
                print("perfbench: %s: %s" % (" ".join(cmd), exc),
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build step failed: %s" % " ".join(cmd),
                      file=sys.stderr)
                return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; stopped" %
              (args.seconds + RUN_GRACE_S), file=sys.stderr)
        proc.kill()
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
