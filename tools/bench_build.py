"""Time kernel construction, sampling and system assembly and record them
in BENCH_build.json.

    python tools/bench_build.py --parent-src /path/to/parent/checkout/src

It times three layers:

* ``graphon.kernel``: `graphon_from_spec` of the sinusoidal spec (d = 2),
  of `bench_artifacts.RANK16` (d = 16), both orthonormal by their spec,
  and of `NON_INTEGER` (d = 1), whose orthonormality is checked on the
  quadrature: the ordering and orthonormality checks included; n is the
  4096 midpoint nodes of that quadrature;

and, on the example-vii problem (sinusoidal kernel, d = 2), at n = 400,
2000, 4000, 10^4, 10^5 and 10^6 cells:

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

from bench_artifacts import RANK16

SIZES = (400, 2000, 4000, 10 ** 4, 10 ** 5, 10 ** 6)
QUAD_NODES = 4096
NON_INTEGER = [{"lambda": 0.5, "fun": "cos", "freq": 1.5}]


def cases(gl, cli):
    """The rows of the ``graphon_lqr`` package ``gl``: ``(row, fn, prepare)``."""
    for spec, d in (({"type": "sinusoidal"}, 2), ({"type": "finite_rank", "pairs": RANK16}, 16),
                    ({"type": "finite_rank", "pairs": NON_INTEGER}, 1)):
        yield (dict(layer="graphon.kernel", n=QUAD_NODES, d=d), gl.graphon_from_spec,
               lambda spec=spec: (spec,))
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

        yield dict(layer="graphon.sample", n=n, d=2), gl.sample_step_entries, kernel
        yield dict(layer="sim.build", n=n, d=2), gl.build_step_system, sample_of_problem


if __name__ == "__main__":
    main(__doc__, cases, "BENCH_build.json",
         "example-vii (sinusoidal kernel, d = 2), a fresh kernel per call; "
         "the sinusoidal, a rank-16 and a non-integer rank-1 spec for graphon.kernel")
