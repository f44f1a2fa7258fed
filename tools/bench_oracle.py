"""Time the matrix-Riccati oracle layer by layer and record it in BENCH_oracle.json.

    python tools/bench_oracle.py --parent-src /path/to/parent/checkout/src

On the example-vii problem sampled at n = 8, 16, 40, 64 and 256 cells
with K = 1000 steps it times two layers:

* ``riccati.matrix``: `solve_matrix_riccati` on the system's matrices,
  the full (K+1) x n x n path, up to n = 64 (at n = 256 the path alone
  takes 0.5 GB);
* ``oracle.compare``: the whole `oracle_compare` (the decoupled run and
  its cost, the oracle's loop, value and certificate, the P gap).

The parent and this checkout are timed alternately in one process, with
one BLAS thread (`bench_common`).
"""
from __future__ import annotations

from bench_common import main  # first: it sets one BLAS thread

SIZES = (8, 16, 40, 64, 256)
PATH_SIZES = (8, 16, 40, 64)  # the sizes whose full Riccati path is timed
STEPS = 1000


def cases(gl, cli):
    """The rows of the ``graphon_lqr`` package ``gl``: ``(row, fn, prepare)``."""
    problem, _, _ = cli.build_experiment(cli.preset_example_vii())
    dt = problem.horizon / STEPS
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
                yield dict(layer=layer, n=n, steps=STEPS), fn, None


if __name__ == "__main__":
    main(__doc__, cases, "BENCH_oracle.json",
         "example-vii (sinusoidal kernel, d = 2), horizon 1")
