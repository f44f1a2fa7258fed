"""What the ``tools/bench_*.py`` timers share: one BLAS thread, a parent and
a change timed in one process, and the command line that writes a BENCH file.

    python tools/bench_<layer>.py --parent-src /path/to/parent/checkout/src

Import this module before numpy, so that numpy's BLAS starts with one
thread.  The change is the ``graphon_lqr`` of this checkout's ``src/``; the
parent's package is copied into a temporary directory and imported from
there as ``graphon_lqr_parent``, so both trees run in one interpreter.
Each timer's ``cases(gl, cli)`` yields, for one package and its ``cli``
module, ``(row, fn, prepare)``: the row's identifying fields, the timed
call and what it needs made outside the timed region (``prepare()``
returns ``fn``'s arguments; None for none).  `measure` times the two
sides' calls of each row alternately, the side that goes first changing
from one repeat to the next, so that the host's drift falls on both
alike; an even count of repeats puts each side first equally often, and
calls cheaper than `MIN_SECONDS` / ``--repeats`` repeat more (`timed`).
Each call is timed with the garbage collector run before it and off
during it, as `timeit` does.  A row holds each side's median and
quartiles of its wall times (`time.perf_counter`) after one warm-up call
of each, their count, the ratio of the change's median to the parent's,
and whether that ratio resolves a difference (`resolved`); the printed
table flags a row that does not.  The output file is written anew.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import shutil
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_SECONDS = 0.5  # cheap calls repeat until each side's calls take this long,
MAX_REPEATS = 200  # or this many times


def timed(calls: dict, repeats: int) -> tuple[int, dict]:
    """Time each side's ``(fn, prepare)`` of ``calls`` alternately after one
    warm-up call of each: ``repeats`` times, or as many more, up to
    `MAX_REPEATS`, as fill `MIN_SECONDS` at the warm-up's pace, rounded up
    to an even count.
    Returns the count and ``{side: statistics}``."""
    def call(fn, prepare):
        args = prepare() if prepare else ()
        gc.collect()  # neither side pays for the other's garbage
        gc.disable()
        try:
            start = time.perf_counter()
            fn(*args)
            return time.perf_counter() - start
        finally:
            gc.enable()

    warm = max(call(fn, prepare) for fn, prepare in calls.values())
    count = max(repeats, min(MAX_REPEATS, math.ceil(MIN_SECONDS / max(warm, 1e-6))))
    count += count % 2
    times = {side: [] for side in calls}
    for k in range(count):
        for side in (list(calls) if k % 2 == 0 else list(calls)[::-1]):
            times[side].append(call(*calls[side]))
    stats = {}
    for side, samples in times.items():
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        stats[side] = {"median_ms": round(1e3 * median, 4), "q1_ms": round(1e3 * q1, 4),
                       "q3_ms": round(1e3 * q3, 4)}
    return count, stats


def resolved(stats: dict) -> bool:
    """Whether the sides' statistics resolve a difference: not when each
    side's median lies inside the other side's quartiles."""
    parent, change = stats["parent"], stats["change"]
    return not (parent["q1_ms"] <= change["median_ms"] <= parent["q3_ms"]
                and change["q1_ms"] <= parent["median_ms"] <= change["q3_ms"])


def measure(cases, packages: dict, repeats: int) -> list[dict]:
    """One row per case of ``cases``, its calls on the parent and the change
    of ``packages`` (``{side: (gl, cli)}``) timed by `timed`; the sides must
    yield the same rows in the same order."""
    rows = []
    for items in zip(*(cases(*packages[side]) for side in SIDES), strict=True):
        row = items[0][0]
        if any(other != row for other, _, _ in items):
            raise ValueError(f"the sides time different rows: {[r for r, _, _ in items]}")
        count, stats = timed({side: (fn, prepare) for side, (_, fn, prepare)
                              in zip(SIDES, items)}, repeats)
        ratio = stats["change"]["median_ms"] / stats["parent"]["median_ms"]
        rows.append(dict(row, repeats=count, ratio=round(ratio, 3),
                         resolved=resolved(stats), **stats))
    return rows


def _load(path: str, name: str):
    """The package ``name`` found under ``path``, and its cli module."""
    sys.path.insert(0, path)
    return importlib.import_module(name), importlib.import_module(f"{name}.cli")


def main(doc: str, cases, out_name: str, problem: str) -> None:
    """Time ``cases`` on the tree of ``--parent-src`` and on this checkout and
    write the rows to ``--out`` (default ``out_name`` in this checkout);
    ``problem`` describes the timed problem in the file's setup."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent-src", required=True,
                        help="the src directory of the parent checkout")
    parser.add_argument("--repeats", type=int, default=16)
    parser.add_argument("--out", default=os.path.join(ROOT, out_name))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(os.path.join(args.parent_src, "graphon_lqr"),
                        os.path.join(copy, "graphon_lqr_parent"))
        packages = {"parent": _load(copy, "graphon_lqr_parent"),
                    "change": _load(os.path.join(ROOT, "src"), "graphon_lqr")}
        rows = measure(cases, packages, args.repeats)
    bench = {"rows": rows, "setup": {
        "problem": problem, "protocol": "parent and change alternating in one process",
        "blas_threads": 1, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "statistic": "median and quartiles of repeats after "
                                              "one warm-up call"}}
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for row in rows:
        rank = f" d={row['d']:<3}" if "d" in row else ""
        sides = "  ".join(f"{side} {row[side]['median_ms']:9.3f} ms "
                          f"[{row[side]['q1_ms']:.3f}, {row[side]['q3_ms']:.3f}]"
                          for side in SIDES)
        flag = "" if row["resolved"] else "  unresolved"
        print(f"{row['layer']:<21} n={row['n']:<8}{rank} {sides}  ratio {row['ratio']:.3f}{flag}")
