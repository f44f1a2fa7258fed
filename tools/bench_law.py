"""Time the feedback law and its consumers and record them in BENCH_law.json.

    python tools/bench_law.py --parent-src /path/to/parent/checkout/src

On the example-vii problem (sinusoidal kernel, d = 2, horizon 1,
K = 1000 steps) it times five layers:

* ``law.call``: the law on a vector state of n = 40 cells at each of the
  K + 1 grid times, one call each (a row is K + 1 calls);
* ``law.gains_grid``: `FeedbackLaw.gains_at` on the whole grid at d = 2
  and on the same problem with a rank-16 kernel;
* ``sim.generic_loop``: `simulate` of the law behind a plain callable,
  which runs the RK4 generic loop, 4K + 1 law calls, n = 40;
* ``cli.example_vii``: ``graphon-lqr example-vii --compare-oracle`` end
  to end through `cli.main`;
* ``cli.truncation_study``: ``graphon-lqr truncation-study`` of the
  example-vii scenario, all levels, end to end through `cli.main`, at
  d = 2 and with the rank-16 kernel.

The law is the problem's `FeedbackLaw`.  The parent and this checkout are
timed alternately in one process, with one BLAS thread (`bench_common`).
"""
from __future__ import annotations

from bench_common import main  # first: it sets one BLAS thread

import contextlib
import dataclasses
import io
import json
import os
import tempfile

from bench_artifacts import RANK16


def cases(gl, cli):
    """The rows of the ``graphon_lqr`` package ``gl``: ``(row, fn, prepare)``."""
    vii = cli.preset_example_vii()
    steps = round(vii.horizon / vii.dt)
    problem, system, x0 = cli.build_experiment(vii)
    law = gl.FeedbackLaw(problem)
    grid = gl.uniform_grid(vii.horizon, vii.dt)

    def calls():
        for t in grid:
            law(float(t), x0)

    def generic_loop():
        gl.simulate(system, lambda t, x: law(t, x), x0, vii.horizon, vii.dt)

    yield dict(layer="law.call", n=vii.n, d=problem.d, steps=steps), calls, None
    for graphon in ({"type": "sinusoidal"}, {"type": "finite_rank", "pairs": RANK16}):
        wide, _, _ = cli.build_experiment(dataclasses.replace(vii, graphon=graphon))
        wide_law = gl.FeedbackLaw(wide)
        yield (dict(layer="law.gains_grid", n=vii.n, d=wide.d, steps=steps),
               lambda: wide_law.gains_at(grid), None)
    yield dict(layer="sim.generic_loop", n=vii.n, d=problem.d, steps=steps), generic_loop, None
    with tempfile.TemporaryDirectory() as tmp:

        def example_vii():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["example-vii", "--compare-oracle", "--out", tmp]) == 0

        yield dict(layer="cli.example_vii", n=vii.n, d=problem.d, steps=steps), example_vii, None
        for d, graphon in ((2, {"type": "sinusoidal"}),
                           (len(RANK16), {"type": "finite_rank", "pairs": RANK16})):
            path = os.path.join(tmp, f"scenario_{d}.json")
            scenario = dataclasses.replace(vii, graphon=graphon)
            with open(path, "w") as fh:
                json.dump(dataclasses.asdict(scenario), fh)

            def study(path=path):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["truncation-study", path, "--out", tmp]) == 0

            yield dict(layer="cli.truncation_study", n=vii.n, d=d, steps=steps), study, None


if __name__ == "__main__":
    main(__doc__, cases, "BENCH_law.json",
         "example-vii (sinusoidal kernel, d = 2, dt = 1e-3); a rank-16 kernel for "
         "law.gains_grid and cli.truncation_study")
