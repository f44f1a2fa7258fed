"""Spectral decoupling of the network LQR problem and its control laws.

A problem couples scalar node dynamics through a finite-rank kernel: the
drift is ``alpha0*I + A``, the input operator ``poly_b(A)``, and the
cost weights ``poly_q(A)`` and ``poly_p0(A)``.  Projecting the state on
the kernel's eigenfunctions splits the problem into one scalar LQR per
eigendirection plus one auxiliary problem for the orthogonal residual,
so synthesis reduces to ``rank + 1`` scalar Riccati solves.

The gains are one curve stored forward in Riccati time tau: column 0
holds the auxiliary gain L, column l the gain M_l of eigendirection l.
The feedback law reads them as the time-to-go gains ``gains(T - t)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .graphon import FiniteRankGraphon, _project, midpoint_grid
from .integrate import uniform_grid
from .poly import CoeffPoly, as_poly
from .riccati import Curve, riccati_explicit

# Tolerance for "nonnegative up to rounding" cost-weight checks.
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class LqrProblem:
    """Finite-horizon LQR data for a kernel-coupled network.

    ``poly_q`` and ``poly_p0`` must be nonnegative, up to 1e-12, on the
    stored spectrum and at zero, so every decoupled scalar problem is well
    posed.  ``mode_params`` is the read-only (d + 1) x 4 table of those
    problems (drift, input gain, state weight, terminal weight): row 0 is
    ``(alpha0, beta0, q0, z0)``, row l ``(alpha0 + lam_l, poly_b(lam_l),
    poly_q(lam_l), poly_p0(lam_l))``, weights clipped at zero in every row.
    """

    alpha0: float
    poly_b: CoeffPoly
    poly_q: CoeffPoly
    poly_p0: CoeffPoly
    graphon: FiniteRankGraphon
    horizon: float
    mode_params: np.ndarray = field(init=False, repr=False, compare=False)

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
            if np.any(vals < -_NEG_TOL):
                raise ValueError(
                    f"{name} must be nonnegative on the spectrum; "
                    f"got {vals} at {spectrum}")
            weights.append(np.maximum(vals, 0.0))
        params = np.column_stack([self.alpha0 + spectrum,
                                  np.atleast_1d(self.poly_b(spectrum)), *weights])
        params.flags.writeable = False
        object.__setattr__(self, "mode_params", params)

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


@dataclass(frozen=True)
class DecoupledState:
    """Projection of a state: eigendirection coordinates plus residual.

    ``auxiliary`` mirrors the input: a cell-value vector for vector
    states, a callable for function states; it is orthogonal to every
    eigenfunction and ``x = auxiliary + sum_l coords[l] * f_l``.
    """

    eigen_coords: np.ndarray
    auxiliary: np.ndarray | Callable


def project_state(x, g: FiniteRankGraphon) -> DecoupledState:
    """Split a state into eigendirection coordinates and the residual.

    Vector states over n cells use the cell inner product
    ``<x, y> = sum(x*y)/n``; function states use midpoint quadrature on
    the kernel's grid and return a callable residual.
    """
    if callable(x):
        grid = g.quadrature_grid()
        coords, _ = _project(np.asarray(x(grid), dtype=float), g.eigfun_values(grid))
        pairs = g.pairs

        def residual(gamma):
            gv = np.asarray(gamma, dtype=float)
            acc = np.array(x(gv), dtype=float)
            for p, c in zip(pairs, coords):
                acc = acc - c * p.fun(gv)
            return float(acc) if acc.ndim == 0 else acc

        return DecoupledState(coords, residual)
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise ValueError(f"state must be a 1-d cell-value vector, got shape {xv.shape}")
    return DecoupledState(*_project(xv, g.eigfun_values(midpoint_grid(xv.size))))


def eigensystem_params(p: LqrProblem, idx: int) -> tuple[float, float, float, float]:
    """Scalar LQR data (drift, input gain, state weight, terminal weight)
    of eigendirection ``idx`` (0-based), row ``idx + 1`` of ``mode_params``.

    The drift is ``alpha0 + lam``, the rest are the problem polynomials
    at ``lam``, weights clipped at zero; as ``lam -> 0`` they approach
    the auxiliary system's ``(alpha0, beta0, q0, z0)``.
    """
    if not 0 <= idx < p.d:
        raise IndexError(f"eigendirection {idx} out of range for rank {p.d}")
    return tuple(float(v) for v in p.mode_params[idx + 1])


def synthesize_gains(p: LqrProblem, dt: float) -> Curve:
    """Solve the rank+1 scalar Riccati equations of the decoupled problem.

    Returns one curve of shape ``(K+1, rank+1)`` on ``uniform_grid(T, dt)``:
    column m solves row m of ``p.mode_params``: the auxiliary gain L in
    column 0, the gain M_l of eigendirection l in column l.  Equal rows
    (a repeated eigenvalue) share one equation.  One call of the explicit
    solution `riccati_explicit` evaluates them all in O(K*(rank+1)) array
    work; a gain that overflows raises `BlowUpError`.
    """
    rows, columns = np.unique(p.mode_params, axis=0, return_inverse=True)
    grid = uniform_grid(p.horizon, dt)
    return Curve(grid, riccati_explicit(*rows.T, grid)[:, columns.ravel()])


def reconstruct_P(gains: Curve, g: FiniteRankGraphon, t: float,
                  n: int) -> np.ndarray:
    """Riccati operator at Riccati time ``t`` as an n x n cell matrix.

    ``P(t) = L_t*(I - sum_l Pi_l) + sum_l M_l(t)*Pi_l`` with the cell
    projectors ``Pi_l = f_l f_l' / n``; at t = 0 this reproduces the
    terminal-weight matrix of the finite system exactly.
    """
    if n < 1:
        raise ValueError(f"partition size must be >= 1, got {n}")
    f = g.eigfun_values(midpoint_grid(n))
    row = gains(t)
    lt, ml = row[0], row[1:]
    return lt * np.eye(n) + f.T @ (((ml - lt) / n)[:, None] * f)


class FeedbackLaw:
    """Optimal state feedback ``u = law(t, x)`` of a decoupled problem.

    ``u = -beta0*L(T-t)*residual - sum_l b_l*M_l(T-t)*coord_l*f_l`` with
    ``b_l = poly_b(lam_l)``: the residual of the state gets the auxiliary
    gain, eigendirection l the gain ``b_l*M_l``.  The state is a vector
    of cell values, giving the vector of inputs, or a function on
    [0, 1], giving the continuum law as a function of the node index.
    A node's input needs only its own state, its eigenfunction values,
    the eigenstate aggregates ``coord_l`` and one row of gains, so the
    localized law is this output read at one node,
    ``u[cell_index(gamma, n)]`` or ``u(gamma)``.

    The law reads the first rank + 1 columns of ``gains``, so the gains
    of a problem also serve every truncation of it.  `simulate` reads the
    law's gains through `gains_at` to run a decoupled closed loop mode by
    mode; `gains_at` rejects a time outside the horizon on either path.
    """

    __slots__ = ("problem", "gains", "_cells")

    def __init__(self, problem: LqrProblem, gains: Curve):
        if abs(gains.grid[-1] - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
            raise ValueError("gain horizon does not match the problem horizon")
        if gains.values.ndim != 2 or gains.values.shape[1] <= problem.d:
            raise ValueError(f"gains need {problem.d + 1} columns, got samples "
                             f"of shape {gains.values.shape[1:]}")
        self.problem = problem
        self.gains = Curve(gains.grid, gains.values[:, :problem.d + 1])
        self._cells: dict[int, np.ndarray] = {}

    def gains_at(self, t) -> np.ndarray:
        """Feedback gains at a time or array of times, shape ``t.shape + (rank + 1,)``.

        Column 0 is the residual gain ``beta0*L(T-t)``, column l the gain
        ``b_l*M_l(T-t)`` of eigendirection l.  A time outside ``[0, T]``
        raises `ValueError` naming the first such time.
        """
        horizon = self.problem.horizon
        outside = (t < 0.0) | (t > horizon + 1e-12)
        if np.any(outside):
            raise ValueError(f"time {np.extract(outside, t)[0]} outside the "
                             f"horizon [0, {horizon}]")
        return self.gains(horizon - t) * self.problem.mode_params[:, 1]

    def __call__(self, t: float, x):
        g = self.gains_at(t)
        if callable(x):
            graphon = self.problem.graphon
            weights = (g[0] - g[1:]) * project_state(x, graphon).eigen_coords

            def law(gamma):
                gv = np.asarray(gamma, dtype=float)
                u = (np.tensordot(weights, graphon.eigfun_values(gv), axes=1)
                     - g[0] * np.asarray(x(gv), dtype=float))
                return float(u) if u.ndim == 0 else u

            return law
        x = np.asarray(x, dtype=float)
        f = self._cells.get(x.size)  # eigenfunction cell values, cached per n
        if f is None:
            f = self._cells[x.size] = self.problem.graphon.eigfun_values(
                midpoint_grid(x.size))
        # -beta0*L*(x - F'c) - F'(bM c), with the F' applications fused
        return f.T @ ((g[0] - g[1:]) * (f @ x / x.size)) - g[0] * x


def feedback_controller(p: LqrProblem, gains: Curve) -> FeedbackLaw:
    """Optimal state feedback ``controller(t, x) -> u`` as a `FeedbackLaw`.

    Each call measures the eigendirection coordinates of the current
    state (real-time aggregation).  With ``p`` a truncation of the
    problem the gains were synthesized for, this is the truncated law.
    """
    return FeedbackLaw(p, gains)


def truncate_problem(p: LqrProblem, level: int) -> LqrProblem:
    """The same problem posed on the rank-``level`` truncated kernel.

    ``feedback_controller(truncate_problem(p, level), gains)`` with the
    gains of ``p`` is the law that keeps only the ``level`` leading
    eigendirections: ignored directions fall into the residual and
    receive the auxiliary gain.  ``level = rank`` gives the optimal law,
    ``level = 0`` the pure auxiliary law ``u = -beta0 * L(T-t) * x``.
    """
    if not 0 <= level <= p.d:
        raise ValueError(f"truncation level must be in [0, {p.d}], got {level}")
    return LqrProblem(p.alpha0, p.poly_b, p.poly_q, p.poly_p0,
                      p.graphon.truncate(level), p.horizon)


def ratio_prediction(p: LqrProblem, direction: int, dt: float) -> float:
    """Terminal-state ratio of an ignored eigendirection.

    When the input polynomial is the constant ``beta0`` and direction
    ``direction`` is dropped from the controller, the closed loop under
    the approximate law relates to the optimal one by

        x_tilde(T) / x_bar(T)
            = exp(-beta0^2 * integral_0^T (Mtilde_t - M_t) dt),

    where ``M`` solves the direction's Riccati equation and ``Mtilde``
    the auxiliary one.  Both curves are read from the gains of
    `synthesize_gains` (columns ``direction + 1`` and 0), and the
    integral is the trapezoid rule on the gain grid.
    """
    if p.poly_b.degree > 0:
        raise ValueError(
            "ratio prediction requires a constant input polynomial "
            f"(degree 0), got degree {p.poly_b.degree}")
    if not 0 <= direction < p.d:
        raise IndexError(f"eigendirection {direction} out of range for rank {p.d}")
    return float(_terminal_ratios(p, synthesize_gains(p, dt))[direction])


def _terminal_ratios(p: LqrProblem, gains: Curve) -> np.ndarray:
    """`ratio_prediction` of every eigendirection from the gains of ``p``.

    One trapezoid rule over the columns of ``gains``, shape ``(rank,)``.
    """
    values = gains.values.T
    integral = np.trapezoid(values[0] - values[1:], gains.grid, axis=-1)
    return np.exp(-p.beta0 ** 2 * integral)
