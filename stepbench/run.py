#!/usr/bin/env python3
"""Build and run one stepbench workload (see README.md).

    python3 stepbench/run.py --workload water_tme --seed 1 --seconds 15 --trace 0

Configures and builds stepbench/ (which compiles the repository's library
from source) under .bench_build/ in Release, runs the workload with the
thread pool pinned, validates a traced run's trace with
scripts/validate_trace.py, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stepbench")
BINARY = os.path.join(BUILD, "stepbench")
VALIDATOR = os.path.join(ROOT, "scripts", "validate_trace.py")
WORKLOADS = ("water_tme", "water_spme", "lr_torus")
# The pool is pinned so per-stage times and the reduction order (hence the
# exact counters and the accuracy figure) are comparable between runs.  One
# thread: on a shared 4-vCPU host, back-to-back 4-thread runs of one step
# measured 50-128 ms p50, one-thread runs 136-140 ms (README.md).
POOL_THREADS = 1
BUILD_JOBS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found next to stepbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "stepbench", "-j",
                    str(BUILD_JOBS)], check=True, stdout=sys.stderr)


def child_env():
    # Inherited TME_* knobs (SIMD mode, tracing, fault injection) would change
    # what is measured; the benchmark sets the one it needs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TME_")}
    env["TME_THREADS"] = str(POOL_THREADS)
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"stepbench: build failed: {e}")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    trace_path = os.path.join(BUILD, f"TRACE_{args.workload}_{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"stepbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"stepbench: exited with code {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]), flush=True)

    if args.trace:
        check = subprocess.run([sys.executable, VALIDATOR, trace_path],
                               stdout=subprocess.PIPE, text=True)
        print(f"trace {os.path.relpath(trace_path, ROOT)}: {check.stdout.strip()}")
        result["attempted"] += 1
        if check.returncode != 0:
            result["failed"] += 1
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
