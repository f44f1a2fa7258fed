"""Time the CLI's CSV artifacts and record them in BENCH_artifacts.json.

    python tools/bench_artifacts.py --label change
    python tools/bench_artifacts.py --label parent --src /path/to/other/checkout/src

Imports ``graphon_lqr`` from ``--src`` (default: this checkout's
``src/``) with one BLAS thread.  On the example-vii problem (sinusoidal
kernel, d = 2, horizon 1, K = 1000 steps) it times three layers:

* ``cli.trajectory``: `cli.write_trajectory_csv` of the closed-loop run
  at n = 40 (example-vii's own network), 2000 and 8000 cells, that is
  (K+1) x (2n+1) numbers;
* ``cli.gains``: `cli.write_gains_csv` of the synthesized gains at d = 2
  and of the same problem on a rank-16 kernel (eight cosine and eight sine
  pairs), (K+1) x (d+2) numbers;
* ``cli.example_vii``: ``graphon-lqr example-vii --compare-oracle`` end
  to end through `cli.main`: synthesis, run, cost, oracle and artifacts.

Each row gives the cells n, the rank d and the count of numbers written.
The files go to a temporary directory; rows above n = 1000 are timed at
most 3 times.  Timing and recording are `bench_common`'s.
"""
from __future__ import annotations

from bench_common import main, timed  # first: it sets one BLAS thread

import contextlib
import dataclasses
import io
import os
import tempfile

SIZES = (40, 2000, 8000)
LARGE = 1000   # cells above which a row is timed at most 3 times
RANK16 = [{"lambda": 0.9 - 0.05 * k, "fun": fun, "freq": k // 2 + 1}
          for k, fun in enumerate(["cos", "sin"] * 8)]


def measure(repeats: int) -> list[dict]:
    import graphon_lqr as gl
    from graphon_lqr import cli

    vii = cli.preset_example_vii()
    steps = round(vii.horizon / vii.dt)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact.csv")
        for n in SIZES:
            problem, system, x0 = cli.build_experiment(dataclasses.replace(vii, n=n))
            gains = gl.synthesize_gains(problem, vii.dt)
            traj = gl.simulate(system, gl.feedback_controller(problem, gains), x0,
                               vii.horizon, vii.dt)
            rows.append(dict(layer="cli.trajectory", n=n, d=problem.d,
                             values=traj.states.size * 2 + traj.grid.size,
                             **timed(lambda: cli.write_trajectory_csv(path, traj),
                                     min(repeats, 3) if n > LARGE else repeats)))
            os.remove(path)
        for graphon in ({"type": "sinusoidal"}, {"type": "finite_rank", "pairs": RANK16}):
            problem, _, _ = cli.build_experiment(dataclasses.replace(vii, graphon=graphon))
            gains = gl.synthesize_gains(problem, vii.dt)
            # the K + 1 rows of t, L and M_1..M_d, counted from the shapes
            rows.append(dict(layer="cli.gains", n=vii.n, d=problem.d,
                             values=(steps + 1) * (problem.d + 2),
                             **timed(lambda: cli.write_gains_csv(path, gains), repeats)))

        def example_vii():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["example-vii", "--compare-oracle", "--out", tmp]) == 0

        rows.append(dict(layer="cli.example_vii", n=vii.n, d=2,   # trajectory.csv and gains.csv
                         values=(2 * vii.n + 1 + 2 + 2) * (steps + 1),
                         **timed(example_vii, repeats)))
    return rows


if __name__ == "__main__":
    main(__doc__, measure, "BENCH_artifacts.json",
         "example-vii (sinusoidal kernel, d = 2, dt = 1e-3); a rank-16 kernel for cli.gains")
