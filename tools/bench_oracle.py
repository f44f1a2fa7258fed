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

Timing and recording are `bench_common`'s.
"""
from __future__ import annotations

from bench_common import main, timed  # first: it sets one BLAS thread

SIZES = (8, 16, 40, 64)
STEPS = 1000


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


if __name__ == "__main__":
    main(__doc__, measure, "BENCH_oracle.json",
         "example-vii (sinusoidal kernel, d = 2), horizon 1")
