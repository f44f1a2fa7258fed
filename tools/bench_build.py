"""Time sampling and system assembly and record them in BENCH_build.json.

    python tools/bench_build.py --label change
    python tools/bench_build.py --label parent --src /path/to/other/checkout/src

Imports ``graphon_lqr`` from ``--src`` (default: this checkout's
``src/``) with one BLAS thread.  On the example-vii problem (sinusoidal
kernel, d = 2) it times two layers at n = 400, 2000 and 4000 cells:

* ``graphon.sample``: `sample_step_entries` on a fresh kernel, so the
  cell table is evaluated in the timed call;
* ``sim.build``: `build_step_system` on a fresh sample of the problem's
  own kernel, the decoupling check included.

Where sampling returns a network rather than a matrix, both layers are
timed at n = 10^4, 10^5 and 10^6 too; a package that samples into an
n x n matrix would need 80 GB at n = 10^5.  The kernel, problem and sample
of each call are made outside the timed region.  Each row holds the
median and the quartiles of ``--repeats`` wall times
(`time.perf_counter`) after one warm-up call.  Rows of the same label
are replaced in the output file; rows of other labels are kept, so a
parent and a change can be recorded side by side.
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
SIZES = (400, 2000, 4000)
LARGE_SIZES = (10 ** 4, 10 ** 5, 10 ** 6)


def timed(prepare, fn, repeats: int) -> dict:
    """``fn(*prepare())`` timed ``repeats`` times after one warm-up call."""
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


def measure(repeats: int) -> list[dict]:
    import graphon_lqr as gl
    from graphon_lqr import cli

    vii, _, _ = cli.build_experiment(cli.preset_example_vii())

    def fresh_problem():  # a new kernel object: no cell table evaluated yet
        return gl.LqrProblem(vii.alpha0, vii.poly_b, vii.poly_q, vii.poly_p0,
                             gl.sinusoidal_graphon(), vii.horizon)

    matrix_free = not isinstance(gl.sample_step_entries(gl.sinusoidal_graphon(), 1),
                                 np.ndarray)
    rows = []
    for n in SIZES + (LARGE_SIZES if matrix_free else ()):
        def kernel():
            return gl.sinusoidal_graphon(), n

        def sample_of_problem():
            problem = fresh_problem()
            return gl.sample_step_entries(problem.graphon, n), problem

        for layer, prepare, fn in (
                ("graphon.sample", kernel, gl.sample_step_entries),
                ("sim.build", sample_of_problem, gl.build_step_system)):
            rows.append(dict(layer=layer, n=n, **timed(prepare, fn, repeats)))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_build.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    rows = [dict(label=args.label, **row) for row in measure(args.repeats)]
    bench = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["rows"] = [r for r in bench["rows"] if r["label"] != args.label] + rows
    bench["setup"] = {
        "problem": "example-vii (sinusoidal kernel, d = 2), a fresh kernel per call",
        "blas_threads": 1, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "statistic": "median of repeats after one warm-up",
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for row in rows:
        print(f"{row['label']:>8} {row['layer']:<15} n={row['n']:<8} "
              f"{row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")


if __name__ == "__main__":
    main()
