"""Time the matrix-Riccati oracle layer by layer and record it in BENCH_oracle.json.

    python tools/bench_oracle.py --label change
    python tools/bench_oracle.py --label parent --src /path/to/other/checkout/src

Imports ``graphon_lqr`` from ``--src`` (default: this checkout's
``src/``) with one BLAS thread.  On the example-vii problem sampled at
n = 8, 16, 40, 64 and 256 cells with K = 1000 steps it times two layers:

* ``riccati.matrix``: `solve_matrix_riccati` on the system's matrices,
  the full (K+1) x n x n path, up to n = 64 (at n = 256 the path alone
  takes 0.5 GB);
* ``oracle.compare``: the whole `oracle_compare` (the decoupled run and
  its cost, the oracle's loop, value and, where it has one, its
  certificate, the P gap; a checkout whose laws read sampled gains
  synthesizes them here too), which runs on any checkout.

Timing and recording are `bench_common`'s.
"""
from __future__ import annotations

from bench_common import main, timed  # first: it sets one BLAS thread

SIZES = (8, 16, 40, 64, 256)
PATH_SIZES = (8, 16, 40, 64)  # the sizes whose full Riccati path is timed
STEPS = 1000


def measure(repeats: int) -> list[dict]:
    import graphon_lqr as gl
    from graphon_lqr import cli

    problem, _, _ = cli.build_experiment(cli.preset_example_vii())
    dt = problem.horizon / STEPS
    rows = []
    for n in SIZES:
        system = gl.build_step_system(gl.sample_step_entries(problem.graphon, n), problem)
        x0 = gl.initial_state(n, 1)

        def riccati():
            gl.solve_matrix_riccati(system.a_mat, system.b_mat, system.q_mat,
                                    system.p0_mat, problem.horizon, dt)

        def compare():
            gl.oracle_compare(system, x0, dt)

        for layer, fn in (("riccati.matrix", riccati), ("oracle.compare", compare)):
            if layer == "oracle.compare" or n in PATH_SIZES:
                rows.append(dict(layer=layer, n=n, steps=STEPS, **timed(fn, repeats)))
    return rows


if __name__ == "__main__":
    main(__doc__, measure, "BENCH_oracle.json",
         "example-vii (sinusoidal kernel, d = 2), horizon 1")
