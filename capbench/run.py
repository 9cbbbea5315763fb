#!/usr/bin/env python3
"""Builds and runs capbench, the benchmark of capstm.

Usage, from the root of the repository:

    python3 capbench/run.py --workload capture-1t --seed 1 --seconds 30 --trace 0

Builds the benchmark program (capbench/CMakeLists.txt, a Release build of
src/ plus the benchmark's own sources) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload. The build output
goes to standard error; the program's report goes to standard output, and
the last line is the JSON result. Heap files live in a private temporary
directory under the build directory, removed on every exit path.

An untraced run (--trace 0) is PROCS processes, one after another, each
measuring --seconds / PROCS seconds on the same seed, with the address-space
layout randomised as usual. Each end-to-end metric of the run is the median
of the processes' values; attempted and failed are their sums. Treap
priorities in txmap are seeded from a thread-local address, so the layout
moves a process's figures; the program varies its worker stacks from app run
to app run, and the median over processes samples the rest of the layout.
setup_s is then the median of PROCS cold set-ups, each the first in its own
process. On the STAMP workloads the latency percentiles are taken over the
rounds of all the processes together.

Every end-to-end time is given at a quiet host's speed: each process times a
fixed loop of its own between its operations and divides its times by that
loop's slowdown (capbench/src/host_speed.hpp). The report lines above the
result give the same figures at wall-clock speed.

A traced run (--trace 1) is one process measuring --seconds seconds.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROCS = 6
POOL_PREFIX = "# op_latency_us"


def fail(msg):
    print("capbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    ap = argparse.ArgumentParser(prog="capbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "stm", "stm.hpp")):
        fail("no capstm sources next to capbench/ (expected src/stm/stm.hpp)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "capbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(build_dir, "capbench")


def run_child(cmd, deadline, running):
    """Runs one benchmark process; returns its JSON result, or None when it
    crashed, printed no result or ran past @p deadline. Its report lines
    are passed through to standard output, except the list of its STAMP
    round latencies, which goes into the result as "op_latency_us"."""
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    running.append(child)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("capbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None
    lines = out.rstrip("\n").splitlines()
    pool = None
    for line in lines[:-1]:
        if line.startswith(POOL_PREFIX):
            pool = [float(x) for x in line[len(POOL_PREFIX):].split()]
        else:
            print(line)
    if lines:
        print("# process result: " + lines[-1])
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None or child.returncode not in (0, 1):
        print("capbench: benchmark process exited %d without a result" %
              child.returncode, file=sys.stderr)
        return None
    if pool is not None:
        result["op_latency_us"] = pool
    return result


def percentile(values, q):
    """As capbench's percentile(): linear between the closest ranks."""
    v = sorted(values)
    rank = q * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def combine(results):
    """Medians of the processes' metrics; sums of their operation counts.
    Where every process listed its round latencies (STAMP workloads), the
    latency percentiles are taken over all of them instead: one process
    holds too few rounds for a p99 with any rounds beyond it."""
    ok = all(r["correct"] for r in results)
    metrics = {}
    if ok:
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"value": statistics.median(values),
                             "unit": first["unit"]}
        if all(r.get("op_latency_us") for r in results):
            pool = [x for r in results for x in r["op_latency_us"]]
            for name, q in (("op_latency_p50_us", 0.50),
                            ("op_latency_p99_us", 0.99)):
                metrics[name]["value"] = percentile(pool, q)
    return {"correct": ok,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    args = parse(argv)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    tmp = tempfile.mkdtemp(prefix="capbench-", dir=build_dir)
    running = []

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    procs = 1 if args.trace else PROCS
    try:
        results = []
        for i in range(procs):
            print("# process %d of %d" % (i + 1, procs))
            cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds / procs),
                   "--trace", str(args.trace), "--tmp", tmp]
            r = run_child(cmd, deadline, running)
            if r is None:
                return 3
            results.append(r)
            if not r["correct"]:
                break
        combined = combine(results)
        print(json.dumps(combined))
        sys.stdout.flush()
        return 0 if combined["correct"] else 1
    finally:
        for child in running:
            if child.poll() is None:
                child.kill()
                child.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
