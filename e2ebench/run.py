#!/usr/bin/env python3
"""Build and run the majc_e2e end-to-end benchmark from a source checkout.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The benchmark is built from the checkout's own sources into .bench_build/ at
the checkout root (configured once, rebuilt incrementally). Build output goes
to stderr, so the last stdout line is the benchmark's JSON result. A failed
build exits non-zero without printing a result.

`--workload all` runs every workload, each in its own process so that peak
memory is measured per workload, and prints one result line per workload
followed by a combined result whose metric names are prefixed with the
workload.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "majc_e2e")
WORKLOADS = ["campaign-short", "campaign-preempt", "serve-closed"]


def build():
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "majc_e2e",
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_one(args):
    return subprocess.run([BINARY] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)


def run_all(args):
    """Run each workload in its own process; combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = run_one(["--workload", name] + args)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = proc.returncode
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "/" + metric] = value
    print(json.dumps(combined))
    return status


def main():
    argv = sys.argv[1:]
    build()
    if "--workload" in argv:
        i = argv.index("--workload")
        if i + 1 < len(argv) and argv[i + 1] == "all":
            return run_all(argv[:i] + argv[i + 2:])
    proc = run_one(argv)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
