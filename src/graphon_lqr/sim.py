"""Closed-loop simulation of finite step-function network systems.

A network of n nodes with symmetric coupling matrix ``entries`` evolves
as ``dx/dt = A x + B u`` with ``A = alpha0*I + entries/n`` and
``B = poly_b(entries/n)``; running and terminal costs weight states by
``poly_q(entries/n)`` and ``poly_p0(entries/n)`` under the cell inner
product ``<x, y> = sum(x*y)/n``.  Controllers are callables
``(t, x) -> u``; under a `FeedbackLaw` a decoupled network runs as one
scalar closed loop per mode.  The module also provides the direct
matrix-Riccati controller used as the verification oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError
from .graphon import StepGraphon, midpoint_grid
from .integrate import uniform_grid
from .lqr import (FeedbackLaw, LqrProblem, feedback_controller, ratio_prediction,
                  reconstruct_P, synthesize_gains, truncate_problem)
from .poly import apply_poly_matrix
from .riccati import solve_matrix_riccati

# Eigenvalue slack for "positive semidefinite up to rounding".
_PSD_TOL = -1e-9

# Largest decoupling residual of a system held in low-rank form.
_DECOUPLING_TOL = 1e-10

# Rows of the coupling matrix compared per block in `decoupling_residual`.
_RESIDUAL_ROWS = 256


def decoupling_residual(entries: np.ndarray, f: np.ndarray, lams: np.ndarray) -> float:
    """How far the cell eigenfunctions ``F`` are from decoupling a coupling.

    The largest of ``max|F F'/n - I|``, ``max|(entries/n) F' - F' diag(lams)|``
    and ``max|entries/n - F' diag(lams) F / n|``; the last one is zero
    when no part of the coupling lies outside the span of ``F'``.  The
    cost is O(n^2 * rank), in row blocks of bounded memory.
    """
    n = entries.shape[0]
    eig_cols = f.T * lams
    residual = max(np.abs(f @ f.T / n - np.eye(lams.size)).max(initial=0.0),
                   np.abs(entries @ f.T / n - eig_cols).max(initial=0.0))
    for lo in range(0, n, _RESIDUAL_ROWS):
        rows = slice(lo, lo + _RESIDUAL_ROWS)
        block = (entries[rows] - eig_cols[rows] @ f) / n
        residual = max(residual, float(np.abs(block).max()))
    return float(residual)


class StepSystem:
    """Finite network realization of an LQR problem on n cells.

    The drift is ``alpha0*I + entries/n``; the input, state-weight and
    terminal-weight matrices are the problem polynomials of
    ``entries/n``.  When the eigenfunction cell values ``F = f_cells``
    decouple the coupling (`decoupling_residual` at most a fixed
    tolerance) and n > rank, the system is held in low-rank form
    (``low_rank``): every such polynomial equals
    ``poly(0)*I + F' diag(poly(lams) - poly(0)) F / n``, simulation and
    costs work on the rank + 1 modes, and the dense matrices are
    assembled only on first access.  Otherwise the dense matrices are
    validated here: symmetric, with positive semidefinite weights.
    Matrices passed in are used as given and always validated.
    """

    def __init__(self, n: int, entries: np.ndarray, problem: LqrProblem,
                 f_cells: np.ndarray, lams: np.ndarray, a_mat=None, b_mat=None,
                 q_mat=None, p0_mat=None):
        self.n = n
        self.entries = entries
        self.problem = problem
        self.f_cells = f_cells  # (rank, n) eigenfunction cell values
        self.lams = lams
        given = {"a_mat": a_mat, "b_mat": b_mat, "q_mat": q_mat, "p0_mat": p0_mat}
        given = {name: np.asarray(m, dtype=float) for name, m in given.items()
                 if m is not None}
        vars(self).update(given)
        self.residual = decoupling_residual(entries, f_cells, lams)
        self.low_rank = (not given and n > lams.size
                         and self.residual <= _DECOUPLING_TOL)
        if self.low_rank:
            return  # LqrProblem checked the weights on {0} and the spectrum
        for name in ("a_mat", "b_mat", "q_mat", "p0_mat"):
            m = getattr(self, name)
            if not np.array_equal(m, m.T):
                raise ValueError(f"system matrix {name} is not symmetric")
        for name in ("q_mat", "p0_mat"):
            low = float(np.linalg.eigvalsh(getattr(self, name)).min())
            if low < _PSD_TOL:
                raise ValueError(
                    f"{name} must be positive semidefinite, smallest eigenvalue {low:.3e}")

    @cached_property
    def a_mat(self) -> np.ndarray:
        a = self.problem.alpha0 * np.eye(self.n) + self.entries / self.n
        return 0.5 * (a + a.T)

    @cached_property
    def b_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_b, self.entries / self.n)

    @cached_property
    def q_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_q, self.entries / self.n)

    @cached_property
    def p0_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_p0, self.entries / self.n)


def build_step_system(entries, p: LqrProblem) -> StepSystem:
    """Assemble the n-cell system from a coupling matrix.

    ``entries`` may be a raw symmetric matrix or a `StepGraphon`; all
    matrices are polynomials of the scaled coupling ``entries / n``.
    Asymmetric or out-of-bound entries are rejected with the offending
    indices.
    """
    if isinstance(entries, StepGraphon):
        entries = entries.entries
    else:
        entries = StepGraphon(entries, bound=p.graphon.bound).entries
    n = entries.shape[0]
    return StepSystem(n=n, entries=entries, problem=p,
                      f_cells=p.graphon.eigfun_values(midpoint_grid(n)),
                      lams=p.graphon.lambdas)


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop run: states and applied controls on a time grid."""

    grid: np.ndarray
    states: np.ndarray    # (len(grid), n)
    controls: np.ndarray  # (len(grid), n)

    def __post_init__(self):
        if not (self.states.shape[0] == self.grid.size == self.controls.shape[0]):
            raise ValueError("grid, states and controls lengths disagree")
        if not (np.all(np.isfinite(self.states)) and np.all(np.isfinite(self.controls))):
            raise ValueError("trajectory contains non-finite entries")


@dataclass(frozen=True)
class CostBreakdown:
    """Total cost and its split into auxiliary and eigendirection parts."""

    total: float
    aux: float
    eigen: np.ndarray

    @property
    def decomposed(self) -> float:
        return float(self.aux + self.eigen.sum())


def initial_state(n: int, seed: int) -> np.ndarray:
    """Reproducible standard-normal initial state for a given seed."""
    return np.random.default_rng(seed).standard_normal(n)


def simulate(sys: StepSystem, controller: Callable, x0, horizon: float,
             dt: float) -> Trajectory:
    """Integrate ``dx/dt = A x + B u(t, x)`` with RK4, recording controls.

    The recorded control at each grid node is ``controller(t_k, x_k)``.
    A `FeedbackLaw` on a low-rank system whose eigenfunctions extend the
    law's runs as rank + 1 scalar closed loops (`_modal_closed_loop`);
    every other controller runs the generic loop on the dense matrices.
    A non-finite state aborts with a `BlowUpError` naming the time.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"initial state must have shape ({sys.n},), got {x.shape}")
    grid = uniform_grid(horizon, dt)
    if isinstance(controller, FeedbackLaw) and _modal(sys, controller):
        states, controls = _modal_closed_loop(sys, controller, x, grid)
        return Trajectory(grid=grid, states=states, controls=controls)
    a, b = sys.a_mat, sys.b_mat
    states = np.empty((grid.size, sys.n))
    controls = np.empty_like(states)
    states[0] = x

    for k in range(grid.size - 1):
        t = grid[k]
        h = grid[k + 1] - t
        tm = t + 0.5 * h
        u1 = controller(t, x)
        controls[k] = u1
        k1 = a @ x + b @ u1
        ym = x + 0.5 * h * k1
        k2 = a @ ym + b @ controller(tm, ym)
        ym = x + 0.5 * h * k2
        k3 = a @ ym + b @ controller(tm, ym)
        ym = x + h * k3
        k4 = a @ ym + b @ controller(t + h, ym)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise BlowUpError(
                f"closed-loop state blew up at t = {grid[k + 1]:.6g}")
        states[k + 1] = x
    controls[-1] = controller(grid[-1], x)
    return Trajectory(grid=grid, states=states, controls=controls)


def _modal(sys: StepSystem, law: FeedbackLaw) -> bool:
    """Whether the law's eigenpairs are the leading ones of a low-rank system."""
    level = law.problem.d
    return (sys.low_rank
            and np.array_equal(law.problem.graphon.lambdas, sys.lams[:level])
            and np.array_equal(law.cells(sys.n), sys.f_cells[:level]))


def _modal_closed_loop(sys: StepSystem, law: FeedbackLaw, x0: np.ndarray,
                       grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States and controls of a decoupled closed loop, one scalar loop per mode.

    Mode 0 is the residual of the state, mode m its m-th eigendirection;
    under the law each obeys ``y' = (drift_m - b_m * gain_m(t)) * y``,
    where directions the law ignores get the residual gain.  One RK4
    step of such a loop, with the law's gains at the generic loop's stage
    times, multiplies y by a growth factor; the products of those factors
    give every mode on the grid, and states and controls are rebuilt from
    the initial residual and coordinates in O(K * n * rank).
    """
    p, f, n = sys.problem, sys.f_cells, sys.n
    spectrum = np.append(0.0, sys.lams)
    drift = p.alpha0 + spectrum
    b_sys = np.atleast_1d(p.poly_b(spectrum))
    level = law.problem.d
    column = np.arange(spectrum.size)  # the law's gain column of every mode
    column[level + 1:] = 0

    t, h = grid[:-1], np.diff(grid)
    gain = law.gains_at(grid)[:, column]
    a1 = drift - b_sys * gain[:-1]
    a2 = drift - b_sys * law.gains_at(t + 0.5 * h)[:, column]
    a4 = drift - b_sys * law.gains_at(t + h)[:, column]
    h = h[:, None]
    s2 = a2 * (1.0 + 0.5 * h * a1)
    s3 = a2 * (1.0 + 0.5 * h * s2)
    s4 = a4 * (1.0 + h * s3)

    coords0 = f @ x0 / n
    resid0 = x0 - coords0 @ f
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.ones((grid.size, spectrum.size))
        np.cumprod(1.0 + (h / 6.0) * (a1 + 2.0 * s2 + 2.0 * s3 + s4), axis=0,
                   out=growth[1:])
        amp = growth[:, 1:] * coords0
        states = amp @ f + growth[:, :1] * resid0
        controls = -((gain[:, 1:] * amp) @ f + (gain[:, :1] * growth[:, :1]) * resid0)
        finite = np.isfinite(states).all(axis=1) & np.isfinite(controls).all(axis=1)
    if not finite.all():
        raise BlowUpError(
            f"closed-loop state blew up at t = {grid[np.argmin(finite)]:.6g}")
    return states, controls


def evaluate_cost(traj: Trajectory, sys: StepSystem) -> CostBreakdown:
    """Quadratic cost of a run and its decoupled breakdown.

    The total is the trapezoid rule applied to
    ``(x'Qx + u'u)/n`` plus the terminal ``x'P0x/n``, from the low-rank
    form of ``Q`` and ``P0`` when the system has one; the breakdown
    projects states and controls on the problem's eigenfunctions and
    accumulates the scalar costs of each decoupled subsystem.
    """
    x, u, grid = traj.states, traj.controls, traj.grid
    n = sys.n
    p = sys.problem
    f = sys.f_cells
    xc = x @ f.T / n          # (K+1, rank) eigenstate coordinates
    uc = u @ f.T / n
    q_eig = np.atleast_1d(p.poly_q(sys.lams))
    z_eig = np.atleast_1d(p.poly_p0(sys.lams))
    if sys.low_rank:
        xx = np.einsum("ki,ki->k", x, x)
        x_q = p.q0 * xx / n + xc ** 2 @ (q_eig - p.q0)
        x_p0 = p.z0 * xx[-1] / n + xc[-1] ** 2 @ (z_eig - p.z0)
    else:
        x_q = ((x @ sys.q_mat) * x).sum(axis=1) / n
        x_p0 = x[-1] @ sys.p0_mat @ x[-1] / n
    run = x_q + np.einsum("ki,ki->k", u, u) / n
    total = float(np.trapezoid(run, grid) + x_p0)

    xa = x - xc @ f
    ua = u - uc @ f
    eigen_run = q_eig * xc ** 2 + uc ** 2
    eigen = (np.trapezoid(eigen_run, grid, axis=0) + z_eig * xc[-1] ** 2
             if p.d else np.zeros(0))
    aux_run = (p.q0 * np.einsum("ki,ki->k", xa, xa)
               + np.einsum("ki,ki->k", ua, ua)) / n
    aux = float(np.trapezoid(aux_run, grid) + p.z0 * (xa[-1] @ xa[-1]) / n)
    return CostBreakdown(total=total, aux=aux, eigen=np.atleast_1d(eigen))


def oracle_controller(sys: StepSystem, horizon: float, dt: float):
    """Feedback ``u = -B P(T-t) x`` from the direct matrix Riccati solve.

    Returns ``(controller, matrix_path)``.
    """
    path = solve_matrix_riccati(sys.a_mat, sys.b_mat, sys.q_mat, sys.p0_mat,
                                horizon, dt)
    b = sys.b_mat

    def controller(t, x):
        return -b @ (path(horizon - t) @ x)

    return controller, path


@dataclass(frozen=True)
class OracleReport:
    """Gaps between the decoupled synthesis and the matrix-Riccati oracle."""

    j_decoupled: float
    j_oracle: float
    cost_rel_gap: float
    state_gap: float
    p_gap: float


def oracle_compare(sys: StepSystem, p: LqrProblem, x0, horizon: float,
                   dt: float) -> OracleReport:
    """Run both controllers and report P-matrix, state and cost gaps.

    The P gap is the max-abs difference between the reconstructed
    operator ``L_t*(I - sum Pi_l) + sum M_l(t)*Pi_l`` and the matrix
    Riccati path at up to 21 sampled grid times.
    """
    gains = synthesize_gains(p, dt)
    ctrl_dec = feedback_controller(p, gains)
    ctrl_orc, path = oracle_controller(sys, horizon, dt)
    traj_dec = simulate(sys, ctrl_dec, x0, horizon, dt)
    traj_orc = simulate(sys, ctrl_orc, x0, horizon, dt)
    j_dec = evaluate_cost(traj_dec, sys).total
    j_orc = evaluate_cost(traj_orc, sys).total
    stride = max(1, (path.grid.size - 1) // 20)
    p_gap = 0.0
    for k in range(0, path.grid.size, stride):
        rec = reconstruct_P(gains, p.graphon, path.grid[k], sys.n)
        p_gap = max(p_gap, float(np.abs(rec - path.values[k]).max()))
    return OracleReport(
        j_decoupled=j_dec,
        j_oracle=j_orc,
        # a zero optimal cost leaves no scale: report the absolute gap
        cost_rel_gap=abs(j_dec - j_orc) / (abs(j_orc) or 1.0),
        state_gap=float(np.abs(traj_dec.states - traj_orc.states).max()),
        p_gap=p_gap,
    )


@dataclass(frozen=True)
class TruncationRow:
    """One truncation level: costs plus per-direction terminal ratios."""

    level: int
    j_truncated: float
    j_optimal: float
    measured_ratio: np.ndarray   # NaN for kept directions / tiny denominators
    predicted_ratio: np.ndarray  # NaN where the prediction does not apply


def truncation_study(sys: StepSystem, p: LqrProblem, x0,
                     levels: Sequence[int], horizon: float,
                     dt: float) -> list[TruncationRow]:
    """Cost inflation and terminal-state ratios for each truncation level.

    For every level the truncated controller is simulated and compared
    with the optimal one; for each ignored direction the measured
    terminal ratio ``x_tilde(T)/x_bar(T)`` sits next to its prediction
    (available when the input polynomial is constant).
    """
    levels = list(levels)
    for level in levels:
        if not 0 <= level <= p.d:
            raise ValueError(f"truncation level {level} outside [0, {p.d}]")
    gains = synthesize_gains(p, dt)
    traj_opt = simulate(sys, feedback_controller(p, gains), x0, horizon, dt)
    j_opt = evaluate_cost(traj_opt, sys).total
    coords_opt = sys.f_cells @ traj_opt.states[-1] / sys.n
    # each direction dropped at some level is predicted once, for all levels
    predictions = np.full(p.d, np.nan)
    if p.poly_b.degree == 0:
        for h in range(min(levels, default=p.d), p.d):
            predictions[h] = ratio_prediction(p, h, dt)
    rows = []
    for level in levels:
        traj = simulate(sys, feedback_controller(truncate_problem(p, level), gains),
                        x0, horizon, dt)
        coords = sys.f_cells @ traj.states[-1] / sys.n
        measured = np.full(p.d, np.nan)
        predicted = np.full(p.d, np.nan)
        for h in range(level, p.d):
            if abs(coords_opt[h]) > 1e-12:
                measured[h] = coords[h] / coords_opt[h]
        predicted[level:] = predictions[level:]
        rows.append(TruncationRow(
            level=level,
            j_truncated=evaluate_cost(traj, sys).total,
            j_optimal=j_opt,
            measured_ratio=measured,
            predicted_ratio=predicted,
        ))
    return rows
