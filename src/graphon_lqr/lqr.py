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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphon import FiniteRankGraphon, midpoint_grid
from .integrate import uniform_grid
from .poly import CoeffPoly, as_poly
from .riccati import Curve, ScalarRiccatiSpec, riccati_explicit, solve_riccati_closed_form

# Tolerance for "nonnegative up to rounding" cost-weight checks.
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class LqrProblem:
    """Finite-horizon LQR data for a kernel-coupled network.

    ``poly_q(lam)`` and ``poly_p0(lam)`` must be nonnegative on the
    stored spectrum and at zero, which makes every decoupled scalar
    problem well posed.
    """

    alpha0: float
    poly_b: CoeffPoly
    poly_q: CoeffPoly
    poly_p0: CoeffPoly
    graphon: FiniteRankGraphon
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "poly_b", as_poly(self.poly_b))
        object.__setattr__(self, "poly_q", as_poly(self.poly_q))
        object.__setattr__(self, "poly_p0", as_poly(self.poly_p0))
        if not np.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        spectrum = np.append(self.graphon.lambdas, 0.0)
        for name, poly in (("poly_q", self.poly_q), ("poly_p0", self.poly_p0)):
            vals = np.atleast_1d(poly(spectrum))
            if np.any(vals < -_NEG_TOL):
                raise ValueError(
                    f"{name} must be nonnegative on the spectrum; "
                    f"got {vals} at {spectrum}")

    @property
    def d(self) -> int:
        return self.graphon.rank

    @property
    def beta0(self) -> float:
        return self.poly_b.const

    @property
    def q0(self) -> float:
        return self.poly_q.const

    @property
    def z0(self) -> float:
        return self.poly_p0.const


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
        xv = np.asarray(x(grid), dtype=float)
        f = g.eigfun_values(grid)
        coords = f @ xv / grid.size
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
    f = g.eigfun_values(midpoint_grid(xv.size))
    coords = f @ xv / xv.size
    return DecoupledState(coords, xv - f.T @ coords)


def eigensystem_params(p: LqrProblem, idx: int) -> tuple[float, float, float, float]:
    """Scalar LQR data (drift, input gain, state weight, terminal weight)
    of eigendirection ``idx`` (0-based).

    The drift is ``alpha0 + lam``, the remaining three are the problem
    polynomials evaluated at ``lam``; as ``lam -> 0`` they approach the
    auxiliary system's ``(alpha0, beta0, q0, z0)``.
    """
    if not 0 <= idx < p.d:
        raise IndexError(f"eigendirection {idx} out of range for rank {p.d}")
    lam = p.graphon.pairs[idx].lam
    # rounding guard: the weights are nonnegative up to float noise
    return (p.alpha0 + lam, float(p.poly_b(lam)),
            max(0.0, float(p.poly_q(lam))), max(0.0, float(p.poly_p0(lam))))


def synthesize_gains(p: LqrProblem, dt: float) -> Curve:
    """Solve the rank+1 scalar Riccati equations of the decoupled problem.

    Returns one curve of shape ``(K+1, rank+1)`` on ``uniform_grid(T, dt)``:
    column 0 is the auxiliary gain L for ``(alpha0, beta0, q0, z0)``,
    column l the gain M_l for `eigensystem_params` of direction l.
    Directions sharing an eigenvalue share one equation (the equations
    coincide).  All equations are evaluated in one call of the explicit
    solution `riccati_explicit`, in O(K*(rank+1)) array work; a gain that
    overflows raises `BlowUpError`.
    """
    params = [(p.alpha0, p.beta0, p.q0, p.z0)]
    slot = {}
    for l in range(p.d):
        lam = p.graphon.pairs[l].lam
        if lam not in slot:
            slot[lam] = len(params)
            params.append(eigensystem_params(p, l))
    arr = np.array(params)
    grid = uniform_grid(p.horizon, dt)
    vals = riccati_explicit(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], grid)
    columns = [0] + [slot[pair.lam] for pair in p.graphon.pairs]
    return Curve(grid, vals[:, columns])


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
    mode.
    """

    __slots__ = ("problem", "gains", "_b", "_cells")

    def __init__(self, problem: LqrProblem, gains: Curve):
        if abs(gains.grid[-1] - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
            raise ValueError("gain horizon does not match the problem horizon")
        if gains.values.ndim != 2 or gains.values.shape[1] <= problem.d:
            raise ValueError(f"gains need {problem.d + 1} columns, got samples "
                             f"of shape {gains.values.shape[1:]}")
        self.problem = problem
        self.gains = Curve(gains.grid, gains.values[:, :problem.d + 1])
        self._b = np.append(problem.beta0, problem.poly_b(problem.graphon.lambdas))
        self._cells: dict[int, np.ndarray] = {}

    def cells(self, n: int) -> np.ndarray:
        """Eigenfunction values on the n cell midpoints, shape (rank, n)."""
        f = self._cells.get(n)
        if f is None:
            f = self._cells[n] = self.problem.graphon.eigfun_values(midpoint_grid(n))
        return f

    def gains_at(self, t) -> np.ndarray:
        """Feedback gains at a time or array of times, shape ``t.shape + (rank + 1,)``.

        Column 0 is the residual gain ``beta0*L(T-t)``, column l the gain
        ``b_l*M_l(T-t)`` of eigendirection l.
        """
        return self.gains(self.problem.horizon - t) * self._b

    def __call__(self, t: float, x):
        if not 0.0 <= t <= self.problem.horizon + 1e-12:
            raise ValueError(f"time {t} outside the horizon [0, {self.problem.horizon}]")
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
        f = self.cells(x.size)
        # -beta0*L*(x - F'c) - F'(bM c), with the F' applications fused
        return f.T @ ((g[0] - g[1:]) * (f @ x / x.size)) - g[0] * x


def feedback_controller(p: LqrProblem, gains: Curve) -> FeedbackLaw:
    """Optimal state feedback ``controller(t, x) -> u`` as a `FeedbackLaw`.

    Each call measures the eigendirection coordinates of the current
    state (real-time aggregation).  With ``p`` a truncation of the
    problem the gains were synthesized for, this is the truncated law.
    """
    return FeedbackLaw(p, gains)


def truncated_controller(p: LqrProblem, level: int, dt: float) -> FeedbackLaw:
    """Feedback that keeps only the ``level`` leading eigendirections.

    Ignored directions fall into the residual and receive the auxiliary
    law (their gain is the auxiliary Riccati solution); ``level = rank``
    reproduces the optimal controller, ``level = 0`` the pure auxiliary
    law ``u = -beta0 * L(T-t) * x``.
    """
    if not 0 <= level <= p.d:
        raise ValueError(f"truncation level must be in [0, {p.d}], got {level}")
    return feedback_controller(truncate_problem(p, level), synthesize_gains(p, dt))


def truncate_problem(p: LqrProblem, level: int) -> LqrProblem:
    """The same problem posed on the rank-``level`` truncated kernel."""
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
    the auxiliary one.  Both curves are evaluated in closed form and
    the integral by the trapezoid rule on the gain grid.
    """
    if p.poly_b.degree > 0:
        raise ValueError(
            "ratio prediction requires a constant input polynomial "
            f"(degree 0), got degree {p.poly_b.degree}")
    drift, gain, q, z = eigensystem_params(p, direction)
    m = solve_riccati_closed_form(
        ScalarRiccatiSpec(drift, gain, q, z, p.horizon, dt))
    mtilde = solve_riccati_closed_form(
        ScalarRiccatiSpec(p.alpha0, p.beta0, p.q0, p.z0, p.horizon, dt))
    integral = np.trapezoid(mtilde.values - m.values, m.grid)
    return float(np.exp(-p.beta0 ** 2 * integral))
