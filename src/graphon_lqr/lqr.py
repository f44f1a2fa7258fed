"""Spectral decoupling of the network LQR problem and its control laws.

A problem couples scalar node dynamics through a finite-rank kernel: the
drift is ``alpha0*I + A``, the input operator ``poly_b(A)``, and the
cost weights ``poly_q(A)`` and ``poly_p0(A)``.  Projecting the state on
the kernel's eigenfunctions splits the problem into one scalar LQR per
eigendirection plus one auxiliary problem for the orthogonal residual,
so synthesis reduces to ``rank + 1`` scalar Riccati solves.

Gain curves are stored forward in Riccati time tau and consumed as the
time-to-go gain ``curve(T - t)`` inside the feedback laws.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graphon import FiniteRankGraphon, cell_index, midpoint_grid
from .poly import CoeffPoly, as_poly
from .riccati import GainCurve, riccati_path, solve_riccati_closed_form, ScalarRiccatiSpec

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


@dataclass(frozen=True)
class GainSchedule:
    """Synthesized gains: auxiliary curve plus one curve per direction."""

    aux: GainCurve
    eigen: tuple[GainCurve, ...]

    def __post_init__(self):
        for c in self.eigen:
            if c.grid.shape != self.aux.grid.shape or not np.array_equal(c.grid, self.aux.grid):
                raise ValueError("all gain curves must share one time grid")
        # row-stacked eigen values for one-shot interpolation
        stack = (np.stack([c.values for c in self.eigen], axis=1)
                 if self.eigen else np.zeros((self.aux.grid.size, 0)))
        object.__setattr__(self, "_stack", stack)

    @property
    def grid(self) -> np.ndarray:
        return self.aux.grid

    @property
    def horizon(self) -> float:
        return self.aux.horizon

    def eigen_at(self, t) -> np.ndarray:
        """All eigendirection gains at one time, linearly interpolated."""
        if np.ndim(t) != 0:
            return np.stack([c(t) for c in self.eigen])
        stack = self._stack
        h = self.aux._h
        if not h:
            return np.array([c(t) for c in self.eigen])
        pos = (float(t) - self.aux._t0) / h
        if pos <= 0.0:
            return stack[0]
        k = int(pos)
        if k >= stack.shape[0] - 1:
            return stack[-1]
        return stack[k] + (pos - k) * (stack[k + 1] - stack[k])


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


def synthesize_gains(p: LqrProblem, dt: float) -> GainSchedule:
    """Solve the rank+1 scalar Riccati equations of the decoupled problem.

    The auxiliary curve uses ``(alpha0, beta0, q0, z0)``; eigendirection
    curves use `eigensystem_params`.  Directions sharing an eigenvalue
    share one solve (the equations coincide).  All solves run as one
    vectorized RK4 sweep on a common grid.
    """
    params = [(p.alpha0, p.beta0, p.q0, p.z0)]
    slot = {}
    for l in range(p.d):
        lam = p.graphon.pairs[l].lam
        if lam not in slot:
            slot[lam] = len(params)
            params.append(eigensystem_params(p, l))
    arr = np.array(params)
    grid, vals = riccati_path(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3],
                              p.horizon, dt)
    curves = [GainCurve(grid, vals[:, k]) for k in range(arr.shape[0])]
    eigen = tuple(curves[slot[p.graphon.pairs[l].lam]] for l in range(p.d))
    return GainSchedule(aux=curves[0], eigen=eigen)


def _check_time(t: float, horizon: float):
    if not 0.0 <= t <= horizon + 1e-12:
        raise ValueError(f"time {t} outside the horizon [0, {horizon}]")


def control_centralized(t: float, x, gains: GainSchedule, p: LqrProblem):
    """Optimal feedback for the full state; vector in, vector out.

    Implements ``u = -beta0*L(T-t)*residual
    - sum_l poly_b(lam_l)*M_l(T-t)*coord_l*f_l`` on every cell (or as a
    callable when the state is a function).
    """
    _check_time(t, p.horizon)
    ttg = p.horizon - t
    lt = gains.aux(ttg)
    ml = gains.eigen_at(ttg)
    b_eig = np.atleast_1d(p.poly_b(p.graphon.lambdas))
    ds = project_state(x, p.graphon)
    weights = b_eig * ml * ds.eigen_coords
    if callable(ds.auxiliary):
        pairs = p.graphon.pairs
        residual = ds.auxiliary
        beta0 = p.beta0

        def law(gamma):
            acc = -beta0 * lt * np.asarray(residual(gamma), dtype=float)
            for pair, w in zip(pairs, weights):
                acc = acc - w * pair.fun(np.asarray(gamma, dtype=float))
            return float(acc) if acc.ndim == 0 else acc

        return law
    f = p.graphon.eigfun_values(midpoint_grid(ds.auxiliary.size))
    return -p.beta0 * lt * ds.auxiliary - f.T @ weights


def control_localized(gamma: float, t: float, x, gains: GainSchedule,
                      p: LqrProblem) -> float:
    """Control input of the node at index ``gamma``.

    Pointwise identical to `control_centralized`; for cell-value states
    ``gamma`` resolves to its cell of the uniform partition.
    """
    u = control_centralized(t, x, gains, p)
    if callable(u):
        return float(u(gamma))
    return float(u[cell_index(gamma, u.size)])


def reconstruct_P(gains: GainSchedule, g: FiniteRankGraphon, t: float,
                  n: int) -> np.ndarray:
    """Riccati operator at Riccati time ``t`` as an n x n cell matrix.

    ``P(t) = L_t*(I - sum_l Pi_l) + sum_l M_l(t)*Pi_l`` with the cell
    projectors ``Pi_l = f_l f_l' / n``; at t = 0 this reproduces the
    terminal-weight matrix of the finite system exactly.
    """
    if n < 1:
        raise ValueError(f"partition size must be >= 1, got {n}")
    f = g.eigfun_values(midpoint_grid(n))
    lt = gains.aux(t)
    ml = gains.eigen_at(t)
    return lt * np.eye(n) + f.T @ (((ml - lt) / n)[:, None] * f)


class FeedbackLaw:
    """Optimal state feedback ``u = law(t, x)`` of a decoupled problem.

    ``u = -beta0*L(T-t)*residual - sum_l b_l*M_l(T-t)*coord_l*f_l`` with
    ``b_l = poly_b(lam_l)``: the residual of the state gets the auxiliary
    gain, eigendirection l the gain ``b_l*M_l``.  Calling the law measures
    the eigendirection coordinates of the given state; `simulate` reads
    the same gains through `gains_at` to run a decoupled closed loop mode
    by mode.
    """

    __slots__ = ("problem", "gains", "_b_eig", "_cells")

    def __init__(self, problem: LqrProblem, gains: GainSchedule):
        if abs(gains.horizon - problem.horizon) > 1e-9 * max(1.0, problem.horizon):
            raise ValueError("gain schedule horizon does not match the problem horizon")
        self.problem = problem
        self.gains = gains
        self._b_eig = np.atleast_1d(problem.poly_b(problem.graphon.lambdas))
        self._cells: dict[int, np.ndarray] = {}

    def cells(self, n: int) -> np.ndarray:
        """Eigenfunction values on the n cell midpoints, shape (rank, n)."""
        f = self._cells.get(n)
        if f is None:
            f = self._cells[n] = self.problem.graphon.eigfun_values(midpoint_grid(n))
        return f

    def gains_at(self, t) -> np.ndarray:
        """Feedback gains at the times ``t``, shape ``t.shape + (rank + 1,)``.

        Column 0 is the residual gain ``beta0*L(T-t)``, column l the gain
        ``b_l*M_l(T-t)`` of eigendirection l; the values are those a call
        of the law uses at the same times.
        """
        ttg = self.problem.horizon - np.asarray(t, dtype=float)
        cols = [self.problem.beta0 * self.gains.aux(ttg)]
        cols += [b * curve(ttg) for b, curve in zip(self._b_eig, self.gains.eigen)]
        return np.stack(cols, axis=-1)

    def __call__(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.cells(x.size)
        coords = f @ x / x.size
        ttg = self.problem.horizon - t
        lt = self.problem.beta0 * self.gains.aux(ttg)
        # -beta0*L*(x - F'c) - F'(bM c), with the F' applications fused
        return f.T @ ((lt - self._b_eig * self.gains.eigen_at(ttg)) * coords) - lt * x


def feedback_controller(p: LqrProblem, gains: GainSchedule) -> FeedbackLaw:
    """Optimal state feedback ``controller(t, x) -> u`` as a `FeedbackLaw`.

    Each call measures the eigendirection coordinates of the current
    state (real-time aggregation).
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
    p_trunc = truncate_problem(p, level)
    gains = synthesize_gains(p_trunc, dt)
    return feedback_controller(p_trunc, gains)


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
