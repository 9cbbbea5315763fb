#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage, from the root of the repository:

    python3 capbench/spread.py --workload contend-4t --runs 10 --seconds 20

For each metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread: (Q3 - Q1) / median. Seeds
are first_seed, first_seed + 1, ...; runs go one after another. With
--json FILE the per-run values are written out as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=False,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed (exit %d) for seed %d" % (out.returncode, seed))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--json")
    args = ap.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, args.seconds)
        if not r["correct"]:
            sys.exit("seed %d: a check failed" % seed)
        results.append(r)
        print("seed %d: attempted %d failed %d" %
              (seed, r["attempted"], r["failed"]), file=sys.stderr)

    print("%-40s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3", "spread"))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-40s %14.6g %14.6g %14.6g %8.2f%%" %
              (name, med, q1, q3, 100 * spread))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
