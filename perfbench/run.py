"""Benchmark launcher for graphon-lqr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher pins the BLAS thread count
to one (at most nproc), generates the seeded scenarios (untimed),
times fresh interpreters that import ``graphon_lqr`` from ``src/`` and
finish a warm-up solve (``setup_s``, the median of several), then runs the
workload process and prints its ``info`` line followed by the result line.
It exits non-zero, printing no result, when the checkout holds no
``src/graphon_lqr`` or any step fails.  The files of the latest run
(scenarios, artifacts, ``result.json`` and ``trace.csv``) are kept in
``perfbench/work/run/``, which each run empties first.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("small-verified", "large-network", "truncation-sweep")
SETUP_PROBES = 5
# One BLAS thread: on a shared 2-core host, two-threaded BLAS made large-network
# throughput spread 12% between runs of one seed, one thread about 3%.
BLAS_THREADS = 1
DEADLINE_S = 170.0  # the whole run, generation and probes included


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(script: str, args: list, env: dict, deadline: float) -> str:
    """Run a benchmark script to completion and return its stdout; raises on
    failure or timeout.  Reading stdout to its end returns as soon as the child
    exits, whereas a bare wait with a timeout polls in steps of up to 50 ms."""
    return subprocess.run([sys.executable, os.path.join(BENCH, script), *args],
                          env=env, cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic())
                          ).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few, small scenarios (for the benchmark's self-test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "graphon_lqr", "__init__.py")):
        print(f"error: no src/graphon_lqr package under {ROOT}", file=sys.stderr)
        return 2
    env = child_env()
    work = os.path.join(BENCH, "work", "run")
    shutil.rmtree(work, ignore_errors=True)
    manifest = os.path.join(work, "manifest.json")
    try:
        run_child("generate.py", ["--workload", args.workload, "--seed", str(args.seed),
                                  "--out", work] + (["--tiny"] if args.tiny else []),
                  env, deadline)
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            start = time.perf_counter()
            run_child("warmup.py", [], env, deadline)
            setup.append(time.perf_counter() - start)
        stdout = run_child("workload.py",
                           ["--workload", args.workload, "--manifest", manifest,
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--work", work],
                           env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark step failed: {exc}", file=sys.stderr)
        return 1
    info_line, result_line = stdout.strip().splitlines()[-2:]
    info = json.loads(info_line)["info"]
    result = json.loads(result_line)
    info.update(seed=args.seed, blas_threads=BLAS_THREADS,
                nproc=len(os.sched_getaffinity(0)),
                python=platform.python_version(), scipy=metadata.version("scipy"))
    if setup:
        info["setup_samples_s"] = setup
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
