#!/usr/bin/env python3
"""Runs each workload in sets of repeated runs and checks that they agree.

    python3 perfbench/compare.py --runs 10 --sets 2
    python3 perfbench/compare.py --workloads cluster-tcp --runs 5 --sets 1

Every run uses another seed. For each workload and end-to-end metric it
prints, per set, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
and then whether the metric holds within its bound from BENCHMARK.json:
  * spread: every set's spread is within the bound (setup_s exempt);
  * agree: no later set's median is worse than the first set's by more
    than the bound, in the metric's "better" direction;
  * failed: the share of failed transactions is identical in every set.
Exits 0 when everything holds. The raw results are kept in
.bench_build/compare-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" %
                         (" ".join(cmd), done.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(first, later, better):
    """Share by which `later` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    all_ok = True
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error("unknown workload " + workload)
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                r = run_once(spec, workload, seed)
                runs.append(r)
                print("%s set %d seed %d: %.1f s, %s" % (
                    workload, s + 1, seed, r["wall_s"], ", ".join(
                        "%s=%.6g" % (k, v["value"])
                        for k, v in r["metrics"].items())), flush=True)
            sets.append(runs)
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_build",
                               "compare-%s.json" % workload), "w") as f:
            json.dump(sets, f, indent=1)

        print("\n== %s: %d set(s) of %d runs, %d s each ==" % (
            workload, args.sets, args.runs, spec["run_seconds"]))
        print("%-14s %5s %-6s %12s %12s %12s %8s  %s" % (
            "metric", "bound", "set", "median", "q1", "q3", "spread",
            "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summaries = [summarize([r["metrics"][name]["value"] for r in runs])
                         for runs in sets]
            for k, sm in enumerate(summaries):
                problems = []
                if name != "setup_s" and sm["spread"] > bound:
                    problems.append("spread > bound")
                if k > 0:
                    w = worse_by(summaries[0]["median"], sm["median"],
                                 metric["better"])
                    if w > bound:
                        problems.append("median worse by %.1f%%" % (100 * w))
                verdict = "ok" if not problems else "; ".join(problems)
                if problems:
                    all_ok = False
                elif name != "setup_s" and sm["spread"] > bound / 3:
                    verdict = "ok (spread above bound/3)"
                print("%-14s %5.2f %-6d %12.6g %12.6g %12.6g %7.1f%%  %s" % (
                    name, bound, k + 1, sm["median"], sm["q1"], sm["q3"],
                    100 * sm["spread"], verdict))
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append(failed / attempted)
        per_run = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        same = len(per_run) == 1
        all_ok = all_ok and same and all(r["correct"] for runs in sets
                                         for r in runs)
        print("failed share per set: %s (%s)" % (
            ", ".join("%.6g" % s for s in shares),
            "identical in every run" if same else "DIFFERS"))
        print("run wall time: max %.1f s" % max(
            r["wall_s"] for runs in sets for r in runs), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
