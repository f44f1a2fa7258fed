"""Time the matrix-Riccati oracle layer by layer and record it in BENCH_oracle.json.

    python tools/bench_oracle.py --label change
    python tools/bench_oracle.py --label parent --src /path/to/other/checkout/src

Imports ``graphon_lqr`` from ``--src`` (default: this checkout's
``src/``) with one BLAS thread.  On the example-vii problem sampled at
n = 8, 16, 40 and 64 cells with K = 1000 steps it times two layers:

* ``riccati.matrix``: `solve_matrix_riccati` on the system's matrices;
* ``oracle.loop``: the oracle closed loop that `oracle_compare` runs,
  ``sim._oracle_closed_loop`` where the package has it, otherwise
  `simulate` with the controller of `oracle_controller`.

Each row holds the median and the quartiles of ``--repeats`` wall times
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
SIZES = (8, 16, 40, 64)
STEPS = 1000


def timed(fn, repeats: int) -> dict:
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_ms": round(1e3 * median, 3), "q1_ms": round(1e3 * q1, 3),
            "q3_ms": round(1e3 * q3, 3), "repeats": repeats}


def measure(repeats: int) -> list[dict]:
    import graphon_lqr as gl
    from graphon_lqr import cli, sim

    problem, _, _ = cli.build_experiment(cli.preset_example_vii())
    dt = problem.horizon / STEPS
    rows = []
    for n in SIZES:
        system = gl.build_step_system(gl.sample_step_entries(problem.graphon, n), problem)
        x0 = gl.initial_state(n, 1)
        controller, path = gl.oracle_controller(system, dt)
        if hasattr(sim, "_oracle_closed_loop"):
            def loop():
                sim._oracle_closed_loop(system, path, x0)
        else:
            def loop():
                gl.simulate(system, controller, x0, problem.horizon, dt)

        def riccati():
            gl.solve_matrix_riccati(system.a_mat, system.b_mat, system.q_mat,
                                    system.p0_mat, problem.horizon, dt)

        for layer, fn in (("riccati.matrix", riccati), ("oracle.loop", loop)):
            rows.append(dict(layer=layer, n=n, steps=STEPS, **timed(fn, repeats)))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_oracle.json"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    rows = [dict(label=args.label, **row) for row in measure(args.repeats)]
    bench = {"rows": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["rows"] = [r for r in bench["rows"] if r["label"] != args.label] + rows
    bench["setup"] = {
        "problem": "example-vii (sinusoidal kernel, d = 2), horizon 1",
        "blas_threads": 1, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "statistic": "median of repeats after one warm-up",
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for row in rows:
        print(f"{row['label']:>8} {row['layer']:<15} n={row['n']:<3} "
              f"{row['median_ms']:9.3f} ms  [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")


if __name__ == "__main__":
    main()
