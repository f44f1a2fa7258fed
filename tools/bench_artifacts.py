"""Time the CLI's CSV artifacts and record them in BENCH_artifacts.json.

    python tools/bench_artifacts.py --parent-src /path/to/parent/checkout/src

On the example-vii problem (sinusoidal kernel, d = 2, horizon 1,
K = 1000 steps) it times three layers:

* ``cli.trajectory``: `cli.write_trajectory_csv` of the closed-loop run
  at n = 40 (example-vii's own network), 2000 and 8000 cells, that is
  (K+1) x (2n+1) numbers;
* ``cli.gains``: `cli.write_gains_csv` of the synthesized gains at d = 2
  and of the same problem on a rank-16 kernel (eight cosine and eight sine
  pairs), (K+1) x (d+2) numbers;
* ``cli.example_vii``: ``graphon-lqr example-vii --compare-oracle`` end
  to end through `cli.main`: synthesis, run, cost, oracle and artifacts.

Each row gives the cells n, the rank d and the count of numbers written.
The CSV rows write to ``os.devnull``, so they time the formatter and the
write calls, not the disk; ``example-vii`` writes its artifacts to a
temporary directory.  The parent and this checkout are timed alternately
in one process, with one BLAS thread (`bench_common`).
"""
from __future__ import annotations

from bench_common import main  # first: it sets one BLAS thread

import contextlib
import dataclasses
import io
import os
import tempfile

SIZES = (40, 2000, 8000)
RANK16 = [{"lambda": 0.9 - 0.05 * k, "fun": fun, "freq": k // 2 + 1}
          for k, fun in enumerate(["cos", "sin"] * 8)]


def cases(gl, cli):
    """The rows of the ``graphon_lqr`` package ``gl``: ``(row, fn, prepare)``."""
    vii = cli.preset_example_vii()
    steps = round(vii.horizon / vii.dt)
    for n in SIZES:
        problem, system, x0 = cli.build_experiment(dataclasses.replace(vii, n=n))
        traj = gl.simulate(system, gl.FeedbackLaw(problem), x0, vii.horizon, vii.dt)
        yield (dict(layer="cli.trajectory", n=n, d=problem.d,
                    values=traj.states.size * 2 + traj.grid.size),
               lambda: cli.write_trajectory_csv(os.devnull, traj), None)
    for graphon in ({"type": "sinusoidal"}, {"type": "finite_rank", "pairs": RANK16}):
        problem, _, _ = cli.build_experiment(dataclasses.replace(vii, graphon=graphon))
        gains = gl.synthesize_gains(problem, vii.dt)
        # the K + 1 rows of t, L and M_1..M_d
        yield (dict(layer="cli.gains", n=vii.n, d=problem.d,
                    values=(steps + 1) * (problem.d + 2)),
               lambda: cli.write_gains_csv(os.devnull, gains), None)
    with tempfile.TemporaryDirectory() as tmp:
        def example_vii():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["example-vii", "--compare-oracle", "--out", tmp]) == 0

        # the values of trajectory.csv and gains.csv
        yield (dict(layer="cli.example_vii", n=vii.n, d=2,
                    values=(2 * vii.n + 1 + 2 + 2) * (steps + 1)), example_vii, None)


if __name__ == "__main__":
    main(__doc__, cases, "BENCH_artifacts.json",
         "example-vii (sinusoidal kernel, d = 2, dt = 1e-3); a rank-16 kernel for cli.gains")
