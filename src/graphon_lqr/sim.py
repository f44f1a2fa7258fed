"""Closed-loop simulation of finite step-function network systems.

A network of n nodes with symmetric coupling matrix ``entries`` evolves
as ``dx/dt = A x + B u`` with ``A = alpha0*I + entries/n`` and
``B = poly_b(entries/n)``; running and terminal costs weight states by
``poly_q(entries/n)`` and ``poly_p0(entries/n)`` under the cell inner
product ``<x, y> = sum(x*y)/n``.  Controllers are callables
``(t, x) -> u``.  A system is always the decoupled realization of its
problem: a network that the kernel eigenfunctions do not decouple is
rejected when the system is built.  Under a `FeedbackLaw` it runs as one
scalar closed loop per mode, and its run and cost stay in those modes.
The module also provides the direct matrix-Riccati controller used as
the verification oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError
from .graphon import StepGraphon
from .integrate import rk4_step, uniform_grid
from .lqr import (FeedbackLaw, LqrProblem, _terminal_ratios, feedback_controller,
                  reconstruct_P, synthesize_gains, truncate_problem)
from .poly import apply_poly_matrix
from .riccati import solve_matrix_riccati

# Largest decoupling residual of a step system.
_DECOUPLING_TOL = 1e-10

# Rows of the coupling matrix read per block in `decoupling_residual`: 32
# rows of a few thousand columns fit in a core's L2 cache.
_RESIDUAL_ROWS = 32


def decoupling_residual(entries: np.ndarray, f: np.ndarray, lams: np.ndarray) -> float:
    """How far the cell eigenfunctions ``F`` are from decoupling a coupling.

    The largest of ``max|F F'/n - I|``, ``max|(entries/n) F' - F' diag(lams)|``
    and ``max|entries/n - F' diag(lams) F / n|``; the last one is zero
    when no part of the coupling lies outside the span of ``F'``.  The
    cost is O(n^2 * rank) in one sweep over cache-sized row blocks of
    ``entries``, which computes both coupling terms of a block while it
    is in cache; the off-span block is formed in one reused buffer, and
    its maximum is divided by n once.
    """
    n = entries.shape[0]
    eig_cols = f.T * lams
    gram = np.abs(f @ f.T / n - np.eye(lams.size)).max(initial=0.0)
    image = off_span = 0.0
    buf = np.empty((min(n, _RESIDUAL_ROWS), n))
    for lo in range(0, n, _RESIDUAL_ROWS):
        block = entries[lo:lo + _RESIDUAL_ROWS]
        cols = eig_cols[lo:lo + _RESIDUAL_ROWS]
        image = max(image, np.abs(block @ f.T / n - cols).max(initial=0.0))
        span = np.matmul(cols, f, out=buf[:len(block)])
        np.subtract(block, span, out=span)
        off_span = max(off_span, np.abs(span, out=span).max())
    return float(max(gram, image, off_span / n))


class StepSystem:
    """Finite network realization of an LQR problem on n cells.

    ``StepSystem(entries, problem)`` reads n from ``entries`` and the
    eigenfunction cell values ``F = f_cells`` from the cell table
    ``problem.graphon.cells(n)``.  F must decouple the coupling: a
    ``residual`` (`decoupling_residual`) above 1e-10 raises `ValueError`
    naming n, d, the residual and the tolerance; full rank n = d
    decouples.  Every polynomial of ``entries/n`` is then
    ``poly(0)*I + F' diag(poly(lams) - poly(0)) F / n`` over the kernel
    eigenvalues ``lams``, so simulation and costs work on the rank + 1
    modes, and the weights are positive semidefinite because the
    problem's polynomials are nonnegative on that spectrum.  The drift
    ``alpha0*I + entries/n`` and the input, state-weight and
    terminal-weight matrices, symmetric by construction, are assembled
    only on first access, for the oracle and for the generic loop.
    """

    def __init__(self, entries: np.ndarray, problem: LqrProblem):
        self.n = n = entries.shape[0]
        self.entries = entries
        self.problem = problem
        self.f_cells = problem.graphon.cells(n)  # (rank, n)
        self.residual = decoupling_residual(entries, self.f_cells,
                                            problem.graphon.lambdas)
        if not self.residual <= _DECOUPLING_TOL:  # a NaN residual fails too
            raise ValueError(
                f"the {n}-cell network does not decouple along the d = {problem.d} "
                f"kernel eigenfunctions: decoupling residual {self.residual:.3e} "
                f"exceeds {_DECOUPLING_TOL:g}")

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

    ``entries`` may be a raw symmetric matrix, validated here against the
    kernel bound (asymmetric or out-of-bound entries are rejected with
    the offending indices), or a `StepGraphon`, whose matrix its own
    constructor already validated.  A network that the kernel
    eigenfunctions do not decouple raises `ValueError` (`StepSystem`)
    before any dense matrix is assembled.  All matrices are polynomials
    of the scaled coupling ``entries / n``.
    """
    if not isinstance(entries, StepGraphon):
        entries = StepGraphon(entries, bound=p.graphon.bound)
    return StepSystem(entries.entries, p)


@dataclass(frozen=True)
class ModalRun:
    """A decoupled closed loop held by its modes.

    On grid node k the state is ``growth[k, 0]*resid + sum_l
    growth[k, l]*coords[l-1]*f[l-1]`` and every mode m is fed back with
    gain ``gains[k, m]``: mode 0 is the residual ``resid`` of the initial
    state, orthogonal to every eigenfunction, mode l its l-th
    eigendirection, with initial coordinate ``coords[l-1]``.
    """

    growth: np.ndarray  # (K+1, rank+1) growth products of the modes
    gains: np.ndarray   # (K+1, rank+1) feedback gain applied to each mode
    resid: np.ndarray   # (n,) residual of the initial state
    coords: np.ndarray  # (rank,) eigendirection coordinates of the initial state
    f: np.ndarray       # (rank, n) eigenfunction cell values


class Trajectory:
    """Closed-loop run: states and applied controls on a time grid.

    ``Trajectory(grid, states, controls)`` holds a dense run, shape
    ``(len(grid), n)`` each.  `simulate` returns a decoupled run in modal
    form (`from_modes`): ``modes`` holds it in O(K*(rank+1)) plus the
    O(n*rank) initial projection, and ``states`` and ``controls`` are
    rebuilt from it only on first access, in O(K*n*rank).  ``modes`` is
    None for a dense run.  No attribute can be rebound or deleted after
    construction, so the rebuilt arrays always agree with the modes.
    """

    modes: ModalRun | None

    def __init__(self, grid: np.ndarray, states: np.ndarray, controls: np.ndarray):
        if not (states.shape[0] == grid.size == controls.shape[0]):
            raise ValueError("grid, states and controls lengths disagree")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(controls))):
            raise ValueError("trajectory contains non-finite entries")
        vars(self).update(grid=grid, states=states, controls=controls, modes=None)

    @classmethod
    def from_modes(cls, grid: np.ndarray, modes: ModalRun) -> Trajectory:
        """A run in modal form; its finiteness is the caller's check."""
        traj = cls.__new__(cls)
        vars(traj).update(grid=grid, modes=modes)
        return traj

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Trajectory is immutable: cannot delete {name!r}")

    @cached_property
    def states(self) -> np.ndarray:
        m = self.modes
        return (m.growth[:, 1:] * m.coords) @ m.f + m.growth[:, :1] * m.resid

    @cached_property
    def controls(self) -> np.ndarray:
        m = self.modes
        amp = m.growth[:, 1:] * m.coords
        return -((m.gains[:, 1:] * amp) @ m.f
                 + (m.gains[:, :1] * m.growth[:, :1]) * m.resid)


@dataclass(frozen=True)
class CostBreakdown:
    """Total cost and its split into auxiliary and eigendirection parts."""

    total: float
    aux: float
    eigen: np.ndarray


def initial_state(n: int, seed: int) -> np.ndarray:
    """Reproducible standard-normal initial state for a given seed."""
    return np.random.default_rng(seed).standard_normal(n)


def simulate(sys: StepSystem, controller: Callable, x0, horizon: float,
             dt: float) -> Trajectory:
    """Integrate ``dx/dt = A x + B u(t, x)`` with RK4, recording controls.

    The recorded control at each grid node is ``controller(t_k, x_k)``.
    A `FeedbackLaw` whose eigenpairs lead those of the system's kernel
    runs as rank + 1 scalar closed loops (`_modal_closed_loop`) in
    O(K*(rank+1)) after one O(n*rank) projection of ``x0``, and returns
    the run in modal form: dense states and controls are built only when
    read.  Every other controller, an arbitrary callable or the law of
    another kernel object, runs the generic loop on the dense matrices,
    one `rk4_step` per grid step whose first slope reuses the recorded
    control, so the controller is called 4K + 1 times over K steps.  A
    non-finite initial state is rejected with `ValueError`; a state that
    turns non-finite aborts with a `BlowUpError` naming the time.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"initial state must have shape ({sys.n},), got {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"initial state must be finite, got {x[bad[0]]} at node {bad[0]}")
    grid = uniform_grid(horizon, dt)
    if isinstance(controller, FeedbackLaw) and _modal(sys, controller):
        return Trajectory.from_modes(grid, _modal_closed_loop(sys, controller, x, grid))
    a, b = sys.a_mat, sys.b_mat

    def rhs(t, y):
        return a @ y + b @ controller(t, y)

    states = np.empty((grid.size, sys.n))
    controls = np.empty_like(states)
    states[0] = x
    for k in range(grid.size - 1):
        t = grid[k]
        u = controls[k] = controller(t, x)
        x = states[k + 1] = rk4_step(rhs, t, grid[k + 1] - t, x, a @ x + b @ u)
    controls[-1] = controller(grid[-1], x)
    return Trajectory(grid=grid, states=states, controls=controls)


def _modal(sys: StepSystem, law: FeedbackLaw) -> bool:
    """Whether the law's eigenpair objects lead those of the system's kernel."""
    pairs = law.problem.graphon.pairs
    return pairs == sys.problem.graphon.pairs[:len(pairs)]


def _modal_closed_loop(sys: StepSystem, law: FeedbackLaw, x0: np.ndarray,
                       grid: np.ndarray) -> ModalRun:
    """A decoupled closed loop, one scalar loop per mode.

    Mode 0 is the residual of the state, mode m its m-th eigendirection;
    under the law each obeys ``y' = (drift_m - b_m * gain_m(t)) * y``
    (row m of ``mode_params``); directions the law ignores get the residual
    gain.  One `rk4_step` from y = 1, the step start times as a column,
    gives every mode's growth factor per step; their products give the
    modes on the grid.  At rank = n the eigendirections span every state,
    so mode 0 is held at zero with unit growth, lest an unstable drift
    amplify the rounding left by the projection.  The run aborts at the
    first step that does not shrink a mode whose rate is negative at both
    ends (h*|rate| past RK4's real stability bound 2.785), and at the
    first node where a bound on the rebuilt entries, (rank + 1)*max|F|
    times the largest mode amplitude, is not finite.
    """
    f, n = sys.f_cells, sys.n
    drift, b_sys = np.array(sys.problem.mode_params[:, :2].T)
    modes = drift.size
    coords0, resid0 = sys.problem.graphon.project(x0)
    if f.shape[0] == n:  # rank = n: no residual
        drift[0] = b_sys[0] = 0.0
        resid0 = np.zeros(n)
    column = np.arange(modes)  # the law's gain column of every mode
    column[law.problem.d + 1:] = 0

    memo = [None, None]  # times and rates of the last stage; k2 and k3 share them

    def rate(t, y):
        if not np.array_equal(memo[0], t):
            memo[:] = t, drift - b_sys * law.gains_at(t[:, 0])[:, column]
        return memo[1] * y

    gain = law.gains_at(grid)[:, column]
    size = np.append(np.abs(resid0).max(), np.abs(coords0))  # largest entry per mode
    rates, h = drift - b_sys * gain, np.diff(grid)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        factors = rk4_step(rate, grid[:-1, None], h,
                           np.ones((grid.size - 1, modes)), rates[:-1])
        stiff = (rates[:-1] < 0) & (rates[1:] < 0) & (factors >= 1)
        growth = np.ones((grid.size, modes))
        np.cumprod(factors, axis=0, out=growth[1:])
        largest = np.maximum(np.abs(growth), np.abs(gain * growth)) * size
        finite = np.isfinite(modes * np.abs(f).max(initial=1.0)
                             * largest.max(axis=1))
    if stiff.any():
        k, m = np.argwhere(stiff)[0]
        raise BlowUpError(
            f"mode {m} of the closed loop is too stiff for RK4 at t = {grid[k]:.6g}: "
            f"h*|rate| = {h[k, 0] * -rates[k, m]:.4g} exceeds the stability bound "
            "2.785, so a decaying mode grows; reduce dt")
    if not finite.all():
        raise BlowUpError(
            f"closed-loop state blew up at t = {grid[np.argmin(finite)]:.6g}")
    return ModalRun(growth=growth, gains=gain, resid=resid0, coords=coords0, f=f)


def _mode_energies(traj: Trajectory, sys: StepSystem) -> tuple[np.ndarray, np.ndarray]:
    """State and control energy of each mode, shape (K+1, rank+1) each.

    Column 0 is ``|r|^2/n`` for the part r of the vector orthogonal to
    every eigenfunction, column l the square of its l-th eigen coordinate
    ``<v, f_l>``; by Parseval a row sums to ``|v|^2/n``.  A run in modal
    form on ``sys`` gives them in O(K*(rank+1)); any other run is
    projected, O(K*n*rank).
    """
    m = traj.modes
    if m is not None and m.f is sys.f_cells:
        x = m.growth ** 2 * np.append(m.resid @ m.resid / sys.n, m.coords ** 2)
        return x, m.gains ** 2 * x

    def energies(v):
        coords, r = sys.problem.graphon.project(v)
        return np.column_stack([np.einsum("ki,ki->k", r, r) / sys.n, coords ** 2])

    return energies(traj.states), energies(traj.controls)


def evaluate_cost(traj: Trajectory, sys: StepSystem) -> CostBreakdown:
    """Quadratic cost of a run and its decoupled breakdown.

    The cost is the trapezoid rule applied to ``(x'Qx + u'u)/n`` plus the
    terminal ``x'P0x/n``.  Each mode's part is read from the mode
    energies (`_mode_energies`): the residual's is
    ``(q0 + G0^2)*g0^2*|x_res|^2/n`` per node, eigendirection l's
    ``(q_l + G_l^2)*(g_l*c_l)^2``, weights from ``mode_params``.  Q and
    P0 act on the modes alone, since the system decouples, so the total is
    the sum of the parts, in O(K*(rank+1)) for a run in modal form and
    O(K*n*rank) for a dense one.
    """
    p, grid = sys.problem, traj.grid
    xe, ue = _mode_energies(traj, sys)
    q, z = p.mode_params[:, 2:].T
    # one row per mode, so that each trapezoid sum runs over contiguous memory
    # and numpy sums it pairwise
    run = np.ascontiguousarray((q * xe + ue).T)
    parts = np.trapezoid(run, grid) + z * xe[-1]
    return CostBreakdown(total=float(parts.sum()), aux=float(parts[0]), eigen=parts[1:])


def oracle_controller(sys: StepSystem, dt: float):
    """Feedback ``u = -B P(T-t) x`` from the direct matrix Riccati solve.

    T is the horizon of the system's problem.  Returns
    ``(controller, matrix_path)``.
    """
    horizon = sys.problem.horizon
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


def oracle_compare(sys: StepSystem, x0, dt: float) -> OracleReport:
    """Run both controllers and report P-matrix, state and cost gaps.

    Both solve the system's problem and run over its horizon.  The P gap
    is the max-abs difference between the reconstructed operator
    ``L_t*(I - sum Pi_l) + sum M_l(t)*Pi_l`` and the matrix Riccati path
    at up to 21 sampled grid times.
    """
    p = sys.problem
    gains = synthesize_gains(p, dt)
    ctrl_dec = feedback_controller(p, gains)
    ctrl_orc, path = oracle_controller(sys, dt)
    traj_dec = simulate(sys, ctrl_dec, x0, p.horizon, dt)
    traj_orc = simulate(sys, ctrl_orc, x0, p.horizon, dt)
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


def truncation_study(sys: StepSystem, x0, levels: Sequence[int],
                     dt: float) -> list[TruncationRow]:
    """Cost inflation and terminal-state ratios for each truncation level.

    Every distinct level in ``levels`` and the full level ``rank`` of the
    system's problem is simulated once over its horizon with one
    synthesis of gains; the level-rank run is the optimal one.  Every
    truncated law runs in modal form on the system, so costs and terminal
    eigen coordinates ``g_l(T)*c_l`` are read from each run's modes, and
    a study builds no (K+1) x n array.  For each ignored direction the
    measured terminal ratio ``x_tilde(T)/x_bar(T)`` sits next to its
    prediction (available when the input polynomial is constant), read
    from the same gains.
    """
    p = sys.problem
    levels = list(levels)
    gains = synthesize_gains(p, dt)
    # truncate_problem rejects a level outside [0, rank] before any run
    laws = {level: feedback_controller(truncate_problem(p, level), gains)
            for level in (*levels, p.d)}
    runs = {}
    for level, law in laws.items():
        traj = simulate(sys, law, x0, p.horizon, dt)
        m = traj.modes
        runs[level] = (evaluate_cost(traj, sys).total, m.growth[-1, 1:] * m.coords)
    j_opt, coords_opt = runs[p.d]
    predictions = (_terminal_ratios(p, gains) if p.poly_b.degree == 0
                   else np.full(p.d, np.nan))
    rows = []
    for level in levels:
        j_level, coords = runs[level]
        dropped = np.arange(p.d) >= level
        measured = np.divide(coords, coords_opt, out=np.full(p.d, np.nan),
                             where=dropped & (np.abs(coords_opt) > 1e-12))
        rows.append(TruncationRow(
            level=level,
            j_truncated=j_level,
            j_optimal=j_opt,
            measured_ratio=measured,
            predicted_ratio=np.where(dropped, predictions, np.nan),
        ))
    return rows
