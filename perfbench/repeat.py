#!/usr/bin/env python3
"""Runs the benchmark command N times per workload, each with another
seed, and prints every metric's median, quartiles and spread — the
figures the bounds in BENCHMARK.json are set and re-checked against.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--trace 0]
                                [--workload fig9-cold ...] [--seconds S]

Spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4).
For end-to-end metrics it is compared with the metric's bound: the
benchmark is meant to keep it under a third of the bound (setup_s is
exempt from the spread rule; its median is what is gated).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    worst = 0
    for workload in workloads:
        values, shares, walls = {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            walls.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (workload, seed,
                                                proc.returncode))
                worst = 1
                continue
            result = json.loads(lines[-1])
            shares.append(result["failed"] / result["attempted"])
            if not result["correct"]:
                worst = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n== %s (%d runs, failed shares %s, wall %.1f-%.1f s)" % (
            workload, len(shares), sorted(set(shares)), min(walls),
            max(walls)))
        print("%-34s %14s %14s %14s %8s %6s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3, s = spread(vals)
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  > bound/3"
            print("%-34s %14.4f %14.4f %14.4f %8.4f %6s%s" % (
                name, q1, median, q3, s,
                "" if bound is None else bound, flag))
            sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
