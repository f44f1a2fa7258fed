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
of each call are made outside the timed region.  Timing and recording
are `bench_common`'s.
"""
from __future__ import annotations

from bench_common import main, timed  # first: it sets one BLAS thread

import numpy as np

SIZES = (400, 2000, 4000)
LARGE_SIZES = (10 ** 4, 10 ** 5, 10 ** 6)


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
            rows.append(dict(layer=layer, n=n, **timed(fn, repeats, prepare)))
    return rows


if __name__ == "__main__":
    main(__doc__, measure, "BENCH_build.json",
         "example-vii (sinusoidal kernel, d = 2), a fresh kernel per call")
