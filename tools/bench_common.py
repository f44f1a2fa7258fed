"""What the ``tools/bench_*.py`` timers share: one BLAS thread, the timing
of a layer, and the command line that records a label's rows in a BENCH file.

Import this module before numpy, so that numpy's BLAS starts with one
thread.  Each row holds the median and the quartiles of ``--repeats`` wall
times (`time.perf_counter`) after one warm-up call.  Rows of the same label
are replaced in the output file; rows of other labels are kept, so a parent
and a change can be recorded side by side.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed(fn, repeats: int, prepare=lambda: ()) -> dict:
    """``fn(*prepare())`` timed ``repeats`` times after one warm-up call;
    ``prepare`` runs outside the timed region."""
    fn(*prepare())
    times = []
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_ms": round(1e3 * median, 3), "q1_ms": round(1e3 * q1, 3),
            "q3_ms": round(1e3 * q3, 3), "repeats": repeats}


def main(doc: str, measure, out_name: str, problem: str) -> None:
    """Run ``measure(repeats)`` on the ``graphon_lqr`` of ``--src`` and record
    its rows under ``--label`` in ``--out`` (default ``out_name`` in this
    checkout); ``problem`` describes the timed problem in the file's setup."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, out_name))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    rows = [dict(label=args.label, **row) for row in measure(args.repeats)]
    bench = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["rows"] = [r for r in bench["rows"] if r["label"] != args.label] + rows
    bench["setup"] = {
        "problem": problem,
        "blas_threads": 1, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "statistic": "median of repeats after one warm-up",
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for row in rows:
        rank = f" d={row['d']:<3}" if "d" in row else ""
        print(f"{row['label']:>8} {row['layer']:<15} n={row['n']:<8}{rank} "
              f"{row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
