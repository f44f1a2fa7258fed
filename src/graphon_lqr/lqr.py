"""Spectral decoupling of the network LQR problem and its control laws.

A problem couples scalar node dynamics through a finite-rank kernel: the
drift is ``alpha0*I + A``, the input operator ``poly_b(A)``, and the
cost weights ``poly_q(A)`` and ``poly_p0(A)``.  Projecting the state on
the kernel's eigenfunctions splits the problem into one scalar LQR per
eigendirection plus one auxiliary problem for the orthogonal residual,
so synthesis reduces to ``rank + 1`` scalar Riccati solves.

The gains are the explicit solutions of those equations, functions of
Riccati time tau: L, the auxiliary gain, and M_l, the gain of
eigendirection l.  The feedback law evaluates its own problem's
solutions exactly at the time to go ``T - t``; `synthesize_gains`
samples them on a time grid, for ``gains.csv``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BlowUpError
from .graphon import FiniteRankGraphon, _point_or_array
from .integrate import uniform_grid
from .poly import CoeffPoly, as_poly
from .riccati import _ExplicitRiccati

# Tolerance for "nonnegative up to rounding" cost-weight checks, relative to
# the sum of the magnitudes of the polynomial's terms: a weight that no
# cancellation rounded, a constant among them, must be nonnegative as it is.
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class LqrProblem:
    """Finite-horizon LQR data for a kernel-coupled network.

    ``poly_q`` and ``poly_p0`` must be nonnegative, up to 1e-12 times
    ``max(1, sum_k |c_k| |s|^k)``, on the stored spectrum s and at zero,
    so every decoupled scalar problem is well posed.  ``mode_params`` is
    the read-only (d + 1) x 4 table of those problems (drift, input gain,
    state weight, terminal weight): row 0 is ``(alpha0, beta0, q0, z0)``,
    row l ``(alpha0 + lam_l, poly_b(lam_l), poly_q(lam_l),
    poly_p0(lam_l))``, weights clipped at zero in every row.
    ``riccati`` is the explicit solution of those rows, set up once:
    ``riccati(tau)`` gives L and M_1..M_d at Riccati time tau, exactly
    (`riccati_explicit`'s arithmetic).  ``value`` is that solution at the
    horizon, Pi(T) of every row, evaluated on first read: a problem whose
    Pi(T) overflows is still built, and raises `BlowUpError` only when the
    value is read.
    """

    alpha0: float
    poly_b: CoeffPoly
    poly_q: CoeffPoly
    poly_p0: CoeffPoly
    graphon: FiniteRankGraphon
    horizon: float
    mode_params: np.ndarray = field(init=False, repr=False, compare=False)
    riccati: _ExplicitRiccati = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "poly_b", as_poly(self.poly_b))
        object.__setattr__(self, "poly_q", as_poly(self.poly_q))
        object.__setattr__(self, "poly_p0", as_poly(self.poly_p0))
        if not np.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        spectrum = np.append(0.0, self.graphon.lambdas)
        weights = []
        for name, poly in (("poly_q", self.poly_q), ("poly_p0", self.poly_p0)):
            vals = np.atleast_1d(poly(spectrum))
            terms = np.abs(spectrum)[:, None] ** np.arange(poly.degree + 1) @ np.abs(poly.coeffs)
            if np.any(vals < -_NEG_TOL * terms):
                raise ValueError(
                    f"{name} must be nonnegative on the spectrum; "
                    f"got {vals} at {spectrum}")
            weights.append(np.maximum(vals, 0.0))
        params = np.column_stack([self.alpha0 + spectrum,
                                  np.atleast_1d(self.poly_b(spectrum)), *weights])
        params.flags.writeable = False
        object.__setattr__(self, "mode_params", params)
        object.__setattr__(self, "riccati", _ExplicitRiccati(*params.T))

    @cached_property
    def value(self) -> np.ndarray:
        value = self.riccati(self.horizon)
        value.flags.writeable = False
        return value

    @property
    def d(self) -> int:
        return self.graphon.rank

    @property
    def beta0(self) -> float:
        return float(self.mode_params[0, 1])

    @property
    def q0(self) -> float:
        return float(self.mode_params[0, 2])

    @property
    def z0(self) -> float:
        return float(self.mode_params[0, 3])


def synthesize_gains(p: LqrProblem, dt: float):
    """Sample the rank+1 gains of the decoupled problem on ``uniform_grid(T, dt)``.

    Returns ``(grid, values)``, the pair `riccati_path` returns, with
    values of shape ``(K+1, rank+1)``: column m solves row m of
    ``p.mode_params``, the auxiliary gain L in column 0 and the gain M_l
    of eigendirection l in column l.  One evaluation of the problem's
    explicit solution ``p.riccati`` at the grid gives them all in
    O(K*(rank+1)) array work; a gain that overflows raises `BlowUpError`.
    The samples are read-only and serve ``gains.csv`` and plots: a
    feedback law evaluates the same solution at any time and reads none.
    """
    grid = uniform_grid(p.horizon, dt)
    values = p.riccati(grid)
    values.flags.writeable = False
    return grid, values


def reconstruct_P(p: LqrProblem, t: float, n: int) -> np.ndarray:
    """Riccati operator of ``p`` at Riccati time ``t`` as an n x n cell matrix.

    ``P(t) = L_t*(I - sum_l Pi_l) + sum_l M_l(t)*Pi_l`` with L and M_l the
    exact solutions of the rows of ``p.mode_params`` at t
    (``p.riccati``) and the cell projectors ``Pi_l = f_l f_l' / n``,
    f_l read from the kernel's cell table ``p.graphon.cells(n)``; at t = 0
    this reproduces the terminal-weight matrix of the finite system
    exactly.
    """
    f = p.graphon.cells(n)
    row = p.riccati(t)
    lt, ml = row[0], row[1:]
    return lt * np.eye(n) + f.T @ (((ml - lt) / n)[:, None] * f)


@dataclass(frozen=True, slots=True, eq=False)
class FeedbackLaw:
    """Optimal state feedback ``u = law(t, x)`` of a decoupled problem.

    ``u = -beta0*L(T-t)*residual - sum_l b_l*M_l(T-t)*coord_l*f_l`` with
    ``b_l = poly_b(lam_l)``: the residual of the state gets the auxiliary
    gain, eigendirection l the gain ``b_l*M_l``.  A node's input needs
    only its own state, its eigenfunction values, the eigenstate
    aggregates ``coord_l`` and one row of gains, so the localized law is
    the output read at one node, ``u[cell_index(gamma, n)]`` or
    ``u(gamma)``.  The law keeps no basis of its own: a vector state is
    read on the kernel's cell table ``cells(n)``, a function state
    through the kernel's `project` and `span`.

    The law is its problem: L and M_l are the explicit solutions of the
    rows of ``problem.mode_params``, which the problem sets up once
    (``problem.riccati``), evaluated exactly at every time the law is
    read, so no time grid and no interpolation enter it.  A truncated
    problem's rows are the leading rows of the full one's, so its law is
    the truncated law.  `simulate` runs the law of the system's problem,
    or of a truncation of it, in closed form, and the run keeps the law to
    read its controls from; `gains_at` rejects a time outside the horizon
    on either path.  A law compares by identity, as a closure does.
    """

    problem: LqrProblem

    def gains_at(self, t) -> np.ndarray:
        """Feedback gains at a time or array of times, shape ``t.shape + (rank + 1,)``.

        Column 0 is the residual gain ``beta0*L(T-t)``, column l the gain
        ``b_l*M_l(T-t)`` of eigendirection l.  A time outside ``[0, T]``
        raises `ValueError` naming the first such time, and so does NaN.
        """
        horizon = self.problem.horizon
        # a NaN time fails both comparisons; `~` would turn a Python bool into an
        # int, where `np.logical_not` gives an np.bool_ with `.any()`
        outside = np.logical_not((0.0 <= t) & (t <= horizon * (1.0 + 1e-12)))
        if outside.any():
            raise ValueError(f"time {np.extract(outside, t)[0]} outside the "
                             f"horizon [0, {horizon}]")
        return self.problem.riccati(horizon - t) * self.problem.mode_params[:, 1]

    def __call__(self, t, x):
        """Inputs at time ``t`` for the state ``x``, in the shape of ``x``.

        ``x`` is a vector of cell values, or a stack of them, one per row,
        for an array ``t`` of as many times, by one expression; a function
        on [0, 1] gives the continuum law as a function of the node index.
        """
        g = self.gains_at(t)
        graphon = self.problem.graphon
        if callable(x):
            weights = (g[0] - g[1:]) * graphon.project(x)[0]
            return lambda gamma: _point_or_array(
                graphon.span(weights, gamma) - g[0] * np.asarray(x(gamma), dtype=float))
        x = np.asarray(x, dtype=float)
        f = graphon.cells(x.shape[-1])
        g0 = g[..., :1]
        # -beta0*L*(x - c F) - (bM c) F with c = x F'/n, the F applications fused
        return ((g0 - g[..., 1:]) * (x @ f.T / f.shape[1])) @ f - g0 * x


def feedback_controller(p: LqrProblem, gains=None) -> FeedbackLaw:
    """Optimal state feedback ``controller(t, x) -> u``: ``FeedbackLaw(p)``.

    Each call measures the eigendirection coordinates of the current
    state (real-time aggregation).  With ``p`` a truncation of a problem,
    this is the truncated law.  ``gains`` is not read: the law evaluates
    its problem's gains itself, and the parameter only keeps two-argument
    callers working.
    """
    return FeedbackLaw(p)


def _check_level(p: LqrProblem, level: int) -> None:
    """Reject a truncation level outside ``[0, rank]``."""
    if not 0 <= level <= p.d:
        raise ValueError(f"truncation level must be in [0, {p.d}], got {level}")


def truncate_problem(p: LqrProblem, level: int) -> LqrProblem:
    """The same problem posed on the rank-``level`` truncated kernel.

    Its ``mode_params`` are the leading ``level + 1`` rows of ``p``'s, so
    ``FeedbackLaw(truncate_problem(p, level))`` is the law that keeps only
    the ``level`` leading eigendirections: ignored directions fall into
    the residual and receive the auxiliary gain.  ``level = rank`` gives
    the optimal law, ``level = 0`` the pure auxiliary law
    ``u = -beta0 * L(T-t) * x``.
    """
    _check_level(p, level)
    return LqrProblem(p.alpha0, p.poly_b, p.poly_q, p.poly_p0,
                      p.graphon.truncate(level), p.horizon)


def ratio_prediction(p: LqrProblem) -> np.ndarray:
    """Terminal-state ratio of every eigendirection, shape ``(rank,)``.

    When the input polynomial is the constant ``beta0`` and direction l
    is dropped from the controller, the closed loop under the
    approximate law relates to the optimal one by

        x_tilde(T) / x_bar(T)
            = exp(-beta0^2 * integral_0^T (Mtilde_t - M_t) dt),

    where ``M`` solves the direction's Riccati equation and ``Mtilde``
    the auxiliary one.  ``I_m = integral_0^T beta0^2 Pi_m`` is
    ``ln Y_m(T) + alpha_m*T`` from the factors of row m of
    ``p.mode_params`` (``p.riccati.log_y``), so entry l is
    ``exp(I_(l+1) - I_0)``, exact with no time grid.  A non-constant
    input polynomial raises `ValueError`; a ratio that is not finite (it
    overflows) raises `BlowUpError` naming the first such direction.
    """
    if p.poly_b.degree > 0:
        raise ValueError(
            "ratio prediction requires a constant input polynomial "
            f"(degree 0), got degree {p.poly_b.degree}")
    integral = p.riccati.log_y(p.horizon) + p.mode_params[:, 0] * p.horizon
    exponent = integral[1:] - integral[0]
    with np.errstate(over="ignore"):  # an overflow is reported below
        ratios = np.exp(exponent)
    bad = ~np.isfinite(ratios)
    if bad.any():
        k = int(np.argmax(bad))
        raise BlowUpError(f"the terminal ratio of eigendirection {k + 1} is not finite: "
                          f"exp({exponent[k]:.6g})")
    return ratios
