"""Shared builders for random test systems."""
import sys

import numpy as np
import pytest

import graphon_lqr as gl


def make_rank_kernel(rng, n, rank, lam_range=(0.2, 0.9)):
    """Random exact rank-r kernel over n cells plus its coupling matrix.

    Eigenfunctions are step functions built from orthonormal columns, so
    the finite system and the kernel share their spectrum exactly.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    lams = rng.uniform(*lam_range, size=rank) * rng.choice([-1.0, 1.0], size=rank)
    order = np.argsort(-np.abs(lams))
    lams, q = lams[order], q[:, order]
    entries = n * (q * lams) @ q.T
    entries = 0.5 * (entries + entries.T)
    pairs = [gl.EigenPair(float(lam), gl.StepFunction(np.sqrt(n) * q[:, k]))
             for k, lam in enumerate(lams)]
    return gl.FiniteRankGraphon(pairs), entries


def admissible_poly(rng, spectrum, degree):
    """Random polynomial that is nonnegative on the spectrum and at zero."""
    pts = np.append(spectrum, 0.0)
    while True:
        c = rng.uniform(-1.0, 1.0, degree + 1)
        c[0] = abs(c[0])
        p = gl.CoeffPoly(c)
        if np.all(np.atleast_1d(p(pts)) >= 0.0):
            return p


def input_poly(rng, degree):
    """Random input polynomial with a constant term bounded away from zero."""
    c = rng.uniform(-1.0, 1.0, degree + 1)
    c[0] = np.sign(c[0] or 1.0) * (0.3 + abs(c[0]))
    return gl.CoeffPoly(c)


def algebraic_root(alpha, beta, q):
    """Positive root of ``2*alpha*S - beta^2*S^2 + q``, the rest point of the
    scalar Riccati equation (array arithmetic).

    ``S = (alpha + omega)/beta^2`` with ``omega = sqrt(alpha^2 + q*beta^2)``;
    for alpha < 0 that sum cancels, so the equal ``q/(omega - alpha)`` is
    used there.  Where beta = 0 and alpha >= 0 there is no root (inf/nan).
    """
    alpha, beta, q = (np.asarray(v, dtype=float) for v in (alpha, beta, q))
    omega = np.hypot(alpha, np.abs(beta) * np.sqrt(q))
    with np.errstate(all="ignore"):
        return np.where(alpha < 0.0, q / (omega - alpha), (alpha + omega) / (beta * beta))


def sinusoidal_problem(horizon=1.0, poly_b=(1.0, 0.5)):
    """The rank-2 sinusoidal-kernel showcase problem."""
    return gl.LqrProblem(2.0, gl.CoeffPoly(list(poly_b)),
                         gl.CoeffPoly([1.0, -2.0, 1.0]),
                         gl.CoeffPoly([1.0, -2.0, 1.0]),
                         gl.sinusoidal_graphon(), horizon)


def record_calls(monkeypatch, fn):
    """Record every call of the package function ``fn``: each loaded
    ``graphon_lqr`` module that binds it by name gets a wrapper that
    appends the call's positional arguments to the returned list."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "graphon_lqr" or name.startswith("graphon_lqr."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recording)
    return calls


@pytest.fixture
def vii_problem():
    return sinusoidal_problem()
