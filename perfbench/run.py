#!/usr/bin/env python3
"""Builds and runs the SQuID end-to-end benchmark.

One run, as BENCHMARK.json's command (from the root of a checkout):

    python3 perfbench/run.py --workload imdb_session --seed 1 --seconds 24 --trace 0

builds the benchmark (perfbench/CMakeLists.txt: the squid library from src/
plus perfbench/e2e.cpp) into $CARGO_TARGET_DIR or .bench_build, then runs it.
The last line of standard output is the run's JSON result.

Steadiness report, across N runs with seeds --seed .. --seed+N-1:

    python3 perfbench/run.py --workload imdb_longtail --repeat 10 --seconds 24 --trace 0

prints each metric's median, quartiles and spread (IQR / median), the figure
each end-to-end bound in BENCHMARK.json is set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("imdb_session", "imdb_longtail", "imdb_execute")
BUILD_JOBS = "4"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures once, then (re)builds the benchmark binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: squid sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "squid_e2e", "-j", BUILD_JOBS],
                   stdout=sys.stderr, env=env, check=True)
    return out


def run_once(out, workload, seed, seconds, trace, capture):
    snapshot = os.path.join(out, "e2e-%s-%d.snap" % (workload, os.getpid()))
    cmd = [os.path.join(out, "squid_e2e"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--snapshot", snapshot]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=170)
    finally:
        if os.path.exists(snapshot):
            os.remove(snapshot)
    if proc.returncode != 0:
        sys.exit("run.py: squid_e2e exited with %d" % proc.returncode)
    return proc.stdout


def report(workload, results):
    """Median, quartiles and spread of every metric across runs."""
    print("workload %s, %d runs" % (workload, len(results)))
    print("  %-30s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print("  %-30s %14.6g %14.6g %14.6g %8.4f  %s" % (
            name, q1, median, q3, spread, results[0]["metrics"][name]["unit"]))
    print("  correct: %s, failed: %d" % (all(r["correct"] for r in results),
                                         sum(r["failed"] for r in results)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many runs (seeds --seed, --seed+1, ...)")
    args = parser.parse_args()

    out = build()
    if args.repeat == 0:
        sys.stdout.flush()
        run_once(out, args.workload, args.seed, args.seconds, args.trace, capture=False)
        return
    if args.repeat < 2:
        sys.exit("run.py: --repeat needs at least 2 runs")
    results = []
    for i in range(args.repeat):
        text = run_once(out, args.workload, args.seed + i, args.seconds, args.trace, capture=True)
        results.append(json.loads(text.strip().splitlines()[-1]))
        print(json.dumps(results[-1]), flush=True)
    report(args.workload, results)


if __name__ == "__main__":
    main()
