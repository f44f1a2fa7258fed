"""Time sampling and system assembly and record them in BENCH_build.json.

    python tools/bench_build.py --parent-src /path/to/parent/checkout/src

On the example-vii problem (sinusoidal kernel, d = 2) it times two layers
at n = 400, 2000, 4000, 10^4, 10^5 and 10^6 cells:

* ``graphon.sample``: `sample_step_entries` on a fresh kernel, so the
  cell table is evaluated in the timed call;
* ``sim.build``: `build_step_system` on a fresh sample of the problem's
  own kernel, the decoupling check included.

Sampling forms no n x n matrix, which would need 80 GB at n = 10^5.  The
kernel, problem and sample of each call are made outside the timed
region.  The parent and this checkout are timed alternately in one
process, with one BLAS thread (`bench_common`).
"""
from __future__ import annotations

from bench_common import main  # first: it sets one BLAS thread

SIZES = (400, 2000, 4000, 10 ** 4, 10 ** 5, 10 ** 6)


def cases(gl, cli):
    """The rows of the ``graphon_lqr`` package ``gl``: ``(row, fn, prepare)``."""
    vii, _, _ = cli.build_experiment(cli.preset_example_vii())

    def fresh_problem():  # a new kernel object: no cell table evaluated yet
        return gl.LqrProblem(vii.alpha0, vii.poly_b, vii.poly_q, vii.poly_p0,
                             gl.sinusoidal_graphon(), vii.horizon)

    for n in SIZES:
        def kernel():
            return gl.sinusoidal_graphon(), n

        def sample_of_problem():
            problem = fresh_problem()
            return gl.sample_step_entries(problem.graphon, n), problem

        yield dict(layer="graphon.sample", n=n), gl.sample_step_entries, kernel
        yield dict(layer="sim.build", n=n), gl.build_step_system, sample_of_problem


if __name__ == "__main__":
    main(__doc__, cases, "BENCH_build.json",
         "example-vii (sinusoidal kernel, d = 2), a fresh kernel per call")
