#!/usr/bin/env python3
"""Latency-ledger benchmark: builds the ledger program from source and
runs one workload against a loopback daemon, as PROCESSES ledger
processes in sequence.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) in the checkout; each ledger process works in its own
temporary directory under .bench_tmp, removed on exit. The last line of
standard output is the run's JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fig9-cold", "xmark-hot", "hospital-update-mix")
RUN_TIMEOUT_S = 170

# A run is split over this many ledger processes in sequence, each with its
# own deployment, a seed of its own derived from the run's seed and an
# equal share of the run's seconds; each reported metric is the median
# over the processes. On the reference VM one process held its speed
# within 5% for 90 s while separate processes of the same seed differed
# by up to a third, so one process per run left the spread over seeds as
# wide as the bounds.
PROCESSES = 3


def pin_to_one_cpu():
    """Runs in the ledger process before it starts: binds it, and so every
    thread it starts, to the highest-numbered CPU it may use. On a shared
    VM, threads spread over several vCPUs hand each request on from vCPU
    to vCPU, and every hand-off may have to wait for the host to schedule
    an idle vCPU again; on the reference VM that wait (counted as steal
    time) took up to half of the benchmark's busy time and moved its
    figures by a third from one run to the next. On one vCPU the hand-offs
    are plain context switches."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the ledger program; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/; run from a full checkout")
        sys.exit(2)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 4)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "ledger_selftest")]
                              ).returncode

    results = []
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for i in range(PROCESSES):
        result = run_ledger(build_dir, args, i, deadline - time.monotonic())
        if isinstance(result, int):
            return result
        results.append(result)
    print(json.dumps(combine(results)))
    return 0


def run_ledger(build_dir, args, index, timeout):
    """Runs one ledger process in a fresh temporary directory; returns its
    parsed result line, or an exit code when it failed."""
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        command = [os.path.join(build_dir, "ledger"),
                   "--workload", args.workload,
                   "--seed", str(args.seed * PROCESSES + index),
                   "--seconds", str(args.seconds / PROCESSES),
                   "--trace", str(args.trace), "--workdir", workdir]
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, timeout),
                                  preexec_fn=pin_to_one_cpu)
        except subprocess.TimeoutExpired:
            log("ledger did not finish within %d s" % RUN_TIMEOUT_S)
            return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)  # only when no other run is using it
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log("ledger exited with code %d" % proc.returncode)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 5
    print("\n".join(lines[:-1]))
    return result


def combine(results):
    """One run's result from its processes' results: operation counts add
    up, and each metric is the median over the processes."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
