"""Closed-loop simulation of finite step-function network systems.

A network of n nodes with symmetric coupling matrix ``entries`` evolves
as ``dx/dt = A x + B u`` with ``A = alpha0*I + entries/n`` and
``B = poly_b(entries/n)``; running and terminal costs weight states by
``poly_q(entries/n)`` and ``poly_p0(entries/n)`` under the cell inner
product ``<x, y> = sum(x*y)/n``.  Controllers are callables
``(t, x) -> u``.  A system is always the decoupled realization of its
problem: a network that the kernel eigenfunctions do not decouple is
rejected when the system is built.  Under the `FeedbackLaw` of its
problem, or of a truncation of it, it runs in closed form, one scalar
growth per mode evaluated at the grid times, held as a `ModalRun`, and its
cost is the value function plus, for a truncated law, the
completion-of-squares inflation of each dropped direction: exact at any
dt, with no time stepping.  Any other controller runs the RK4 generic
loop, held as a dense `Trajectory`; both records are frozen.  A network
sampled from the problem's own kernel is checked from the kernel's cell
table, so that pipeline forms no n x n array at any n; ``entries`` and
its polynomials are formed only for the oracle and the generic loop.  The
module also compares the decoupled run with the direct matrix-Riccati
oracle (`oracle_compare`), whose loop, value and self-check
`riccati._oracle_loop` computes from the dense matrices alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, NumericError
from .graphon import StepGraphon
from .integrate import rk4_step, uniform_grid
from .lqr import (FeedbackLaw, LqrProblem, _check_level, feedback_controller,
                  ratio_prediction, reconstruct_P, truncate_problem)
from .poly import apply_poly_matrix
from .riccati import _oracle_loop, solve_matrix_riccati

# Largest decoupling residual of a step system: its Gram part as it is, its
# coupling part relative to max|lambda_l| over the kernel eigenvalues of its
# problem.
_DECOUPLING_TOL = 1e-10
# Largest relative difference between the oracle's value on two chunkings of
# its exact steps (`oracle_compare`).
_ORACLE_SELF_TOL = 1e-8


def decoupling_residual(entries: np.ndarray, f: np.ndarray,
                        lams: np.ndarray) -> tuple[float, float]:
    """How far the cell eigenfunctions ``F`` are from decoupling a coupling.

    Two parts: the Gram part ``max|F F'/n - I|``, which has no scale, and
    the coupling part, the larger of ``max|(entries/n) F' - F' diag(lams)|``
    and ``max|entries/n - F' diag(lams) F / n|``, in the units of the
    coupling; the last one is zero when no part of the coupling lies outside
    the span of ``F'``.  The cost is O(n^2 * rank); the off-span maximum is
    divided by n once.
    """
    n = entries.shape[0]
    eig_cols = f.T * lams
    gram = np.abs(f @ f.T / n - np.eye(lams.size)).max(initial=0.0)
    image = np.abs(entries @ f.T / n - eig_cols).max(initial=0.0)
    off_span = np.abs(entries - eig_cols @ f).max(initial=0.0)
    return float(gram), float(max(image, off_span / n))


def _sampled_residual(f: np.ndarray, lams: np.ndarray) -> tuple[float, float]:
    """`decoupling_residual` of the kernel's own samples ``F' diag(lams) F``.

    There ``(entries/n) F' - F' diag(lams) = F' diag(lams) (F F'/n - I)``
    and no part lies off the span, so the parts are ``max|E|`` and
    ``max|F' diag(lams) E|`` with ``E = F F'/n - I``, the latter read from
    its (rank, n) transpose; O(n * rank^2) with no n x n array.
    """
    excess = f @ f.T / f.shape[1] - np.eye(lams.size)
    return (float(np.abs(excess).max(initial=0.0)),
            float(np.abs((excess.T * lams) @ f).max(initial=0.0)))


class StepSystem:
    """Finite network realization of an LQR problem on n cells.

    ``StepSystem(network, problem)`` reads n from the `StepGraphon`
    ``network`` and the eigenfunction cell values ``F = f_cells`` from
    the cell table ``problem.graphon.cells(n)``.  F must decouple the
    coupling: a Gram part of the residual above 1e-10, or a coupling part
    above ``1e-10*max|lams|``, a rounding of the kernel's scale (all but
    zero for rank 0), raises `ValueError` naming n, d, the ``residual``
    (the larger part) and the bound exceeded; full rank n = d decouples.
    A network sampled from a kernel with the problem's eigenpairs is
    checked in factor form (`_sampled_residual`, O(n * rank^2)), so
    neither the check nor the decoupled run forms its ``entries``; any
    other network by `decoupling_residual` on its matrix.  Every polynomial of
    ``entries/n`` is then ``poly(0)*I + F' diag(poly(lams) - poly(0)) F / n``
    over the kernel eigenvalues ``lams``, so simulation and costs work on
    the rank + 1 modes, and the weights are positive semidefinite because
    the problem's polynomials are nonnegative on that spectrum.  The drift
    ``alpha0*I + entries/n``, exactly symmetric as ``entries`` is, and the
    input, state-weight and terminal-weight matrices are assembled only on
    first access, for the oracle and for the generic loop.
    """

    def __init__(self, network: StepGraphon, problem: LqrProblem):
        self.n = n = network.n
        self.network = network
        self.problem = problem
        self.f_cells = problem.graphon.cells(n)  # (rank, n)
        lams = problem.graphon.lambdas
        if network.kernel is not None and network.kernel.pairs == problem.graphon.pairs:
            parts = _sampled_residual(self.f_cells, lams)
        else:
            parts = decoupling_residual(network.entries, self.f_cells, lams)
        self.residual = max(parts)
        # a rank-0 kernel has no scale: the smallest normal float stands in
        # for it, so the bound is never 0 * inf
        scale = np.abs(lams).max(initial=np.finfo(float).tiny)
        for part, bound in zip(parts, (_DECOUPLING_TOL, _DECOUPLING_TOL * scale)):
            if not part <= bound:  # a NaN part fails too
                raise ValueError(
                    f"the {n}-cell network does not decouple along the d = {problem.d} "
                    f"kernel eigenfunctions: decoupling residual {self.residual:.3e} "
                    f"exceeds {bound:g}")

    @cached_property
    def a_mat(self) -> np.ndarray:
        return self.problem.alpha0 * np.eye(self.n) + self.network.entries / self.n

    @cached_property
    def b_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_b, self.network.entries / self.n)

    @cached_property
    def q_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_q, self.network.entries / self.n)

    @cached_property
    def p0_mat(self) -> np.ndarray:
        return apply_poly_matrix(self.problem.poly_p0, self.network.entries / self.n)


def build_step_system(network, p: LqrProblem) -> StepSystem:
    """Assemble the n-cell system from a network.

    ``network`` may be a raw coupling matrix, validated here as a
    `StepGraphon` (a non-finite or asymmetric one is rejected with the
    offending indices), or a `StepGraphon`: a matrix its own constructor
    already validated, or a kernel's samples (`sample_step_entries`),
    symmetric by construction.  A network that the kernel eigenfunctions
    do not decouple raises `ValueError` (`StepSystem`) before any dense
    matrix is assembled; a matrix that passes lies within
    ``n * 1e-10 * max|lams|`` of the kernel's own samples entry by entry,
    over the kernel eigenvalues ``lams``, so its magnitude needs no check of
    its own.  All matrices are polynomials of the scaled coupling
    ``entries / n``.
    """
    if not isinstance(network, StepGraphon):
        network = StepGraphon(network)
    return StepSystem(network, p)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A dense closed-loop run: states and applied controls on a time grid.

    ``Trajectory(grid, states, controls)`` holds states and controls of
    shape ``(len(grid), n)`` each; other shapes raise `ValueError`, and so
    do non-finite entries and a grid that is not 1-D, finite and strictly
    increasing.  `simulate` returns one from its generic loop; a
    closed-form run is a `ModalRun`.  No attribute can be rebound or
    deleted.
    """

    grid: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        grid, states, controls = self.grid, self.states, self.controls
        if not (grid.ndim == 1 and np.isfinite(grid).all() and np.all(np.diff(grid) > 0.0)):
            raise ValueError("the time grid must be 1-D, finite and strictly increasing")
        if not (states.shape[0] == grid.size == controls.shape[0]):
            raise ValueError("grid, states and controls lengths disagree")
        if controls.shape != states.shape:
            raise ValueError(
                f"controls must have the states' shape {states.shape}, got {controls.shape}")
        if not (np.all(np.isfinite(states)) and np.all(np.isfinite(controls))):
            raise ValueError("trajectory contains non-finite entries")


@dataclass(frozen=True, eq=False)
class ModalRun:
    """A closed-form run of a decoupled loop: its modes and the law it ran.

    On grid node k the state is ``growth[k, 0]*resid + sum_l
    growth[k, l]*coords[l-1]*f[l-1]`` over the kernel's cell table
    ``f = problem.graphon.cells(n)``: mode 0 is the residual ``resid`` of
    the initial state, orthogonal to every eigenfunction, mode l its l-th
    eigendirection, with initial coordinate ``coords[l-1]``.  The ``law``
    is optimal for ``problem`` but keeps only its first ``law.problem.d``
    eigendirections; the others take the residual gain.  ``states`` are
    rebuilt on first read, in O(K*n*rank), and ``controls`` are the law at
    them, one call over the grid.  No attribute can be rebound or deleted,
    so both always agree with the modes.
    """

    grid: np.ndarray
    growth: np.ndarray  # (K+1, rank+1) growth of the modes
    resid: np.ndarray   # (n,) residual of the initial state
    coords: np.ndarray  # (rank,) eigendirection coordinates of the initial state
    problem: LqrProblem
    law: FeedbackLaw

    @cached_property
    def states(self) -> np.ndarray:
        f = self.problem.graphon.cells(self.resid.size)
        return (self.growth[:, 1:] * self.coords) @ f + self.growth[:, :1] * self.resid

    @cached_property
    def controls(self) -> np.ndarray:
        return self.law(self.grid, self.states)


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
             dt: float) -> Trajectory | ModalRun:
    """Run ``dx/dt = A x + B u(t, x)`` on a uniform grid, recording controls.

    The recorded control at each grid node is ``controller(t_k, x_k)``.
    The `FeedbackLaw` of the system's problem, or of a truncation of it,
    runs in closed form (`_modal_closed_loop`) at any ``dt``: rank + 1
    scalar growths evaluated at the grid times in O(K*(rank+1)) after one
    O(n*rank) projection of ``x0``, returned as a `ModalRun`, whose dense
    states and controls are built only when read; it takes no time steps,
    so its states carry no discretization error.  Every other controller,
    an arbitrary callable or the law of another kernel object, runs the
    generic loop on the dense matrices and returns a `Trajectory`: classic
    RK4, one `rk4_step` per grid step whose first slope reuses the
    recorded control, so the controller is called 4K + 1 times over K
    steps.  A law behind a plain callable reads exact gains at the stage
    times there, so its run is fourth order in ``dt``.  A non-finite initial state is rejected
    with `ValueError`; a state that overflows aborts with a `BlowUpError`
    naming the time.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"initial state must have shape ({sys.n},), got {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"initial state must be finite, got {x[bad[0]]} at node {bad[0]}")
    grid = uniform_grid(horizon, dt)
    if isinstance(controller, FeedbackLaw) and _truncates(sys.problem, controller.problem):
        return _modal_closed_loop(sys, controller, x, grid)
    a, b = sys.a_mat, sys.b_mat

    def rhs(t, y):
        return a @ y + b @ controller(t, y)

    states = np.empty((grid.size, sys.n))
    controls = np.empty_like(states)
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):  # rk4_step reports an overflow
        for k in range(grid.size - 1):
            t = grid[k]
            u = controls[k] = controller(t, x)
            x = states[k + 1] = rk4_step(rhs, t, grid[k + 1] - t, x, a @ x + b @ u)
    controls[-1] = controller(grid[-1], x)
    return Trajectory(grid=grid, states=states, controls=controls)


def _truncates(p: LqrProblem, own: LqrProblem) -> bool:
    """Whether ``own`` is ``p`` or a truncation of it (`truncate_problem`).

    Its eigenpair objects must lead those of ``p``'s kernel and its other
    data must be ``p``'s.
    """
    return (own.graphon.pairs == p.graphon.pairs[:own.d]
            and (own.alpha0, own.poly_b, own.poly_q, own.poly_p0, own.horizon)
            == (p.alpha0, p.poly_b, p.poly_q, p.poly_p0, p.horizon))


def _log_growth(p: LqrProblem, own: LqrProblem, t: np.ndarray) -> np.ndarray:
    """ln of every mode's growth at times ``t``, shape ``(len(t), rank+1)``.

    Under the law of ``own``, ``p`` or a truncation of it that keeps only
    its first ``kept = own.d`` eigendirections, mode m <= kept grows by
    ``Y_m(T - t)/Y_m(T)`` (Radon's lemma: ``d/dt Y_m(T - t) =
    (alpha_m - b_m^2 Pi_m(T - t)) Y_m(T - t)``), and a dropped direction
    l, fed back through b_l with the residual gain ``beta0 L``, by
    ``alpha_l t - b_l beta0 integral_{T-t}^T L``.  Both read the kept rows'
    explicit solutions, ``own.riccati``.
    """
    alpha, beta = p.mode_params[:, :2].T
    horizon, kept = p.horizon, own.d
    times = np.append(horizon - t, horizon)[:, None]  # Riccati times, then T
    ln_y = own.riccati.log_y(times)
    out = np.empty((t.size, p.d + 1))
    out[:, :kept + 1] = ln_y[:-1] - ln_y[-1]
    out[:, kept + 1:] = alpha[kept + 1:] * t[:, None]
    if kept < p.d and beta[0] != 0.0:
        integral = own.riccati.gain_integral(times)[:, :1]
        out[:, kept + 1:] -= beta[kept + 1:] * beta[0] * (integral[-1] - integral[:-1])
    return out


def _modal_closed_loop(sys: StepSystem, law: FeedbackLaw, x0: np.ndarray,
                       grid: np.ndarray) -> ModalRun:
    """A decoupled closed loop in closed form, one growth per mode.

    Mode 0 is the residual of the state, mode m its m-th eigendirection;
    the growths are `_log_growth` at the grid times, and the run keeps
    the law, whose output at the rebuilt states is the controls.  At
    rank = n the eigendirections span every state, so mode 0 is held at
    zero with unit growth, lest an unstable drift amplify the rounding
    left by the projection.  The run aborts at the first node where a
    bound on the rebuilt entries is not finite: a state entry is at most
    (rank + 1)*max|F| times the largest mode amplitude, and the law's
    sums ``x F'`` and gain products at most ``max(n, (2*rank + 1)*max|F|
    *max|gain|) * max|F|`` times that.  Each gain solves an autonomous
    scalar Riccati equation, so it is monotone in time and its largest
    magnitude over the run is at one of the run's two ends: the bound
    reads the law (`FeedbackLaw.gains_at`) there alone.
    """
    f, n, p = sys.f_cells, sys.n, sys.problem
    big_gain = np.abs(law.gains_at(grid[[0, -1]])).max()  # rejects a time past the horizon
    coords0, resid0 = p.graphon.project(x0)
    log_growth = _log_growth(p, law.problem, grid)
    if f.shape[0] == n:  # rank = n: no residual
        log_growth[:, 0] = 0.0
        resid0 = np.zeros(n)
    size = np.append(np.abs(resid0).max(), np.abs(coords0))  # largest entry per mode
    big_f = np.abs(f).max(initial=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(log_growth)
        states = (p.d + 1) * big_f * (growth * size).max(axis=1)
        law_ops = np.maximum(n, (2 * p.d + 1) * big_f * big_gain)
        finite = np.isfinite(states * law_ops * big_f)
    if not finite.all():
        raise BlowUpError(
            f"closed-loop state blew up at t = {grid[np.argmin(finite)]:.6g}")
    return ModalRun(grid=grid, growth=growth, resid=resid0, coords=coords0, problem=p,
                    law=law)


def _unit_costs(run: ModalRun) -> np.ndarray:
    """Cost of each mode of a run per unit of its initial energy, ``(rank+1,)``.

    By completion of squares a mode fed back with gain k(t) over
    ``[0, t1]`` costs ``Pi(t1) + integral_0^t1 ((k(t) - b Pi(t1 - t)) g(t))^2``
    per unit energy, where Pi solves the mode's Riccati equation and g is
    its growth.  A kept mode of a run over the law's whole horizon T has
    ``k = b Pi(T - t)``, so it costs the value ``Pi(T)`` alone; a dropped
    direction, or any mode of a shorter run, adds the integral, by a
    composite 8-point Gauss-Legendre rule, closed forms at every node and
    no time stepping.  A closed-loop rate ``alpha - b k(t)`` is monotone
    in time, as the gain is, so its range is read at the run's two ends.
    The panels are no longer than the inverse of the integrand's rate at
    the run's start: ``2*omega`` of the Riccati solutions plus the
    closed-loop rates there.  Toward the run's end they are shorter.
    There each Riccati solution starts from its terminal weight z0 and
    may fall steeply, with a pole about ``1/|beta^2 z0 - alpha|`` past
    the end, so the panels widen by 3/2 from the end, each half as wide
    as its distance from a pole ``1/fastest`` past it; ``fastest`` is
    ``2*omega`` plus the largest of those rates and of the closed-loop
    rates at both ends.  A stiff end thus costs about six panels per
    decade of ``T*fastest``, not one panel per unit of it.  The applied
    gains are read from the run's law, the optimal ones and their rates
    omega from ``p.riccati``, so no Riccati equation is set up here.  An
    overflowing integral gives an infinite part, with no warning;
    `evaluate_cost` rejects it.
    """
    p, kept, horizon = run.problem, run.law.problem.d, float(run.grid[-1])
    alpha, beta, _, z0 = p.mode_params.T
    value = p.riccati(horizon)
    skewed = np.arange(p.d + 1) > kept if horizon == p.horizon else np.ones(p.d + 1, bool)
    if not skewed.any():
        return value
    modes = np.flatnonzero(skewed)
    column = np.where(modes <= kept, modes, 0)  # the law's gain column of each mode
    rates = np.abs(alpha[skewed] - beta[skewed] * run.law.gains_at(run.grid[[0, -1]])[:, column])
    omega = 2.0 * p.riccati.rates[0].max()  # the Riccati solutions' 2*omega
    fastest = omega + max(rates.max(), np.abs(beta * beta * z0 - alpha).max())
    # panel edges as distances from the run's end
    graded = (1.5 ** np.arange(1.0, np.log1p(horizon * fastest) / np.log(1.5)) - 1.0) / fastest
    even = np.linspace(0.0, horizon, max(1, int(np.ceil(horizon * (omega + rates[0].max())))) + 1)
    edges = horizon - np.sort(np.append(even, graded))[::-1]
    nodes, weights = np.polynomial.legendre.leggauss(8)
    start, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    t = (start + half * (nodes + 1.0)).ravel()
    applied = run.law.gains_at(t)[:, column]  # dropped: the residual gain
    optimal = p.riccati(horizon - t)[:, skewed] * beta[skewed]
    with np.errstate(over="ignore", invalid="ignore"):
        miss = (applied - optimal) * np.exp(_log_growth(p, run.law.problem, t)[:, skewed])
        value[skewed] += (half * weights).ravel() @ (miss * miss)
    return value


def evaluate_cost(traj: Trajectory | ModalRun, sys: StepSystem) -> CostBreakdown:
    """Quadratic cost of a run and its decoupled breakdown.

    The cost of ``(x'Qx + u'u)/n`` over the run plus the terminal
    ``x'P0x/n``, split into the parts of the modes: the residual's with
    the weights ``(q0, z0)`` of ``mode_params`` row 0, eigendirection l's
    with row l.  Q and P0 act on the modes alone, since the system
    decouples, so the total is the sum of the parts.  A `ModalRun` of
    ``sys``'s problem (`simulate`) costs its modes' initial energies times
    their `_unit_costs`, exact with no time grid: the value function for the
    optimal law, plus the completion-of-squares inflation of each dropped
    direction for a truncated one, so no truncation costs less than the
    optimum.  Any other run is projected on the modes, O(K*n*rank), and
    integrated by the trapezoid rule.  A run whose node count is not
    ``sys.n`` raises `ValueError`; a cost that is not finite, as when a
    dropped direction's inflation or a mode's energy overflows, raises
    `BlowUpError`, and no overflow warning escapes.  The closed form
    integrates over the whole run, so this also catches a dropped
    direction that overflows between the run's grid nodes.
    """
    modal = isinstance(traj, ModalRun)
    n = traj.resid.size if modal else traj.states.shape[1]
    if n != sys.n:
        raise ValueError(f"the run has {n} nodes but the system has {sys.n}")
    with np.errstate(over="ignore", invalid="ignore"):
        if modal and traj.problem is sys.problem:
            energy = np.append(traj.resid @ traj.resid / n, traj.coords ** 2)
            parts = _unit_costs(traj) * energy
        else:
            q, z = sys.problem.mode_params[:, 2:].T

            def energies(v):
                coords, r = sys.problem.graphon.project(v)
                return np.column_stack([np.einsum("ki,ki->k", r, r) / n, coords ** 2])

            xe, ue = energies(traj.states), energies(traj.controls)
            # one row per mode, so that each trapezoid sum runs over contiguous
            # memory and numpy sums it pairwise
            run = np.ascontiguousarray((q * xe + ue).T)
            parts = np.trapezoid(run, traj.grid) + z * xe[-1]
        total = float(parts.sum())
    if not np.isfinite(total):
        raise BlowUpError(f"the cost is not finite: mode parts {parts.tolist()}")
    return CostBreakdown(total=total, aux=float(parts[0]), eigen=parts[1:])


def oracle_controller(sys: StepSystem, dt: float):
    """Feedback ``u = -B P(T-t) x`` from the direct matrix Riccati solve.

    T is the horizon of the system's problem.  Returns ``(controller,
    (grid, values))``, the matrix path of `solve_matrix_riccati`; the
    controller reads it by linear interpolation in time, clamped to the
    end samples, for the generic loop.
    """
    horizon = sys.problem.horizon
    grid, path = solve_matrix_riccati(sys.a_mat, sys.b_mat, sys.q_mat, sys.p0_mat,
                                      horizon, dt)
    b, steps = sys.b_mat, grid.size - 1

    def controller(t, x):
        # P(T - t) at grid position pos = k + w; the end samples exactly at
        # and past either end, where w is 0 or 1
        pos = min(max((horizon - t) / horizon * steps, 0.0), steps)
        k = min(int(pos), steps - 1)
        w = pos - k
        return -b @ (((1.0 - w) * path[k] + w * path[k + 1]) @ x)

    return controller, (grid, path)


@dataclass(frozen=True)
class OracleReport:
    """Gaps between the decoupled synthesis and the matrix-Riccati oracle.

    ``run`` is the decoupled side's closed-form run of the problem's law
    and ``oracle_self_gap`` the oracle's estimate of its own error.
    """

    j_decoupled: float
    j_oracle: float
    cost_rel_gap: float
    state_gap: float
    p_gap: float
    oracle_self_gap: float
    run: ModalRun


def oracle_compare(sys: StepSystem, x0, dt: float) -> OracleReport:
    """Run both controllers and report P-matrix, state and cost gaps.

    Both solve the system's problem and run over its horizon, and both
    are exact at any ``dt``, so on ordinary problems every gap is
    rounding.  The decoupled side is the closed-form run of the problem's
    law (`simulate`), kept in the report, and its cost by `evaluate_cost`;
    no gains are synthesized.  The oracle stays independent of the
    decoupling: dense n x n matrices, no eigenfunction.  Its states come
    from the chunk factors of the exact matrix Riccati steps
    (`riccati._oracle_loop`), and its cost is the value ``x0' P(T) x0 / n``.  The
    P gap is the max-abs difference between the operator ``L_t*(I - sum
    Pi_l) + sum M_l(t)*Pi_l`` (`reconstruct_P`, exact at each time) and the
    oracle's P at up to 21 sampled grid times.

    The oracle certifies its value and reads no eigenfunction to do so:
    ``oracle_self_gap`` is the larger relative difference between it and
    the same value from the checks of `_oracle_loop`, the same exact steps
    on a shifted chunking.  Above 1e-8 the oracle has lost its precision
    and `NumericError` is raised, naming the self-gap.  That happens when
    beta0 = 0 leaves an unstable residual uncontrollable and P grows like
    ``exp(2 alpha0 t)`` along it: every dense product then carries a
    rounding of about ``eps*|P|`` that the step multiplies by P once
    more.  On the sinusoidal kernel at n = 8 with alpha0 = 2, poly_b =
    [0, 1] and K = 500, alpha0*T = 10 reads a cost gap of 1.8e-9 and a
    self-gap of 2.8e-10, 11 a cost gap of 2.1e-8 and a self-gap of
    8.7e-9, and alpha0*T = 12 to 14 are refused (self-gaps 5.8e-8 to
    9.4e-4 against cost gaps 4.7e-8 to 4.2e-5).  The self-gap does not
    see the rounding of H itself, which all passes share, so an answer
    can be off by more than it says: over random problems of that kind
    the cost gap has reached 18 times the self-gap
    (tests/test_oracle_certificate.py).  Further on, from
    alpha0*T = 15 there, P also loses the nonnegative diagonal of a
    positive semidefinite matrix, and `riccati._exact_steps` raises
    `BlowUpError`.
    """
    p = sys.problem
    traj = simulate(sys, feedback_controller(p), x0, p.horizon, dt)
    j_dec = evaluate_cost(traj, sys).total
    grid = traj.grid
    x0 = np.asarray(x0, dtype=float)
    nodes = range(0, grid.size, max(1, (grid.size - 1) // 20))
    states, p_end, sampled, checks = _oracle_loop(sys.a_mat, sys.b_mat, sys.q_mat,
                                                  sys.p0_mat, x0, grid, nodes)
    j_orc = float(x0 @ p_end @ x0) / sys.n
    scale = abs(j_orc) or 1.0  # a zero optimal cost leaves no scale: absolute gaps
    self_gap = max(abs(float(x0 @ c @ x0) / sys.n - j_orc) for c in checks) / scale
    if not self_gap <= _ORACLE_SELF_TOL:
        raise NumericError(
            f"the matrix Riccati oracle lost its precision: its value differs by "
            f"{self_gap:.3e} (relative) between two passes over its exact steps, "
            f"a self-gap above {_ORACLE_SELF_TOL:g}")
    p_gap = max(float(np.abs(reconstruct_P(p, grid[k], sys.n)
                             - sampled[k]).max()) for k in nodes)
    return OracleReport(
        j_decoupled=j_dec,
        j_oracle=j_orc,
        cost_rel_gap=abs(j_dec - j_orc) / scale,
        state_gap=float(np.abs(traj.states - states).max()),
        p_gap=p_gap,
        oracle_self_gap=self_gap,
        run=traj,
    )


@dataclass(frozen=True)
class TruncationRow:
    """One truncation level: costs plus per-direction terminal ratios."""

    level: int
    j_truncated: float
    j_optimal: float
    measured_ratio: np.ndarray   # NaN for kept directions / an optimal growth of 0
    predicted_ratio: np.ndarray  # NaN where the prediction does not apply


def truncation_study(sys: StepSystem, x0, levels: Sequence[int]) -> list[TruncationRow]:
    """Cost inflation and terminal-state ratios for each truncation level.

    At most two closed-form runs over the system's horizon T serve every
    level, and no gains are synthesized: the optimal law (level rank) and,
    when a level below rank is asked for, the pure auxiliary law
    (level 0).  Each mode of a decoupled run evolves on its own, and a
    dropped direction's loop depends only on the residual gain
    ``beta0 L``, the same at every level that drops it.  So level d costs
    the optimal run's parts of the residual and the kept directions plus
    the level-0 run's parts of the dropped ones (`evaluate_cost`, exact),
    and its terminal growths ``g_l(T)`` come from the same runs.  Neither
    output needs the times in between, so each run is on the two-node
    grid {0, T}: a study takes no time step and builds no array of a time
    grid's length.  A cost that overflows anywhere in ``[0, T]`` raises
    `BlowUpError` (`evaluate_cost`).  For each dropped direction the
    measured terminal ratio ``x_tilde_l(T)/x_bar_l(T)`` is the growth ratio
    ``g_tilde_l(T)/g_bar_l(T)``, as the initial coordinate c_l cancels, so
    it does not depend on the scale of ``x0`` and is NaN only where the
    optimal growth underflows to 0.  It sits next to its prediction
    `ratio_prediction` (available when the input polynomial is constant),
    in closed form from the problem's table of scalar problems.
    """
    p = sys.problem
    levels = list(levels)
    for level in levels:
        _check_level(p, level)
    parts, growths = {}, {}
    for level in dict.fromkeys((p.d, *(0 for level in levels if level < p.d))):
        law = feedback_controller(truncate_problem(p, level))
        run = simulate(sys, law, x0, p.horizon, p.horizon)  # the grid {0, T}
        cost = evaluate_cost(run, sys)
        parts[level] = np.append(cost.aux, cost.eigen)
        growths[level] = run.growth[-1, 1:]
    j_opt = float(parts[p.d].sum())
    # predicted only where a level drops a direction (and so ran level 0)
    predictions = (ratio_prediction(p) if p.poly_b.degree == 0 and 0 in parts
                   else np.full(p.d, np.nan))
    rows = []
    for level in levels:
        dropped = np.arange(p.d) >= level
        j_level = (j_opt if level == p.d else
                   float(np.append(parts[p.d][:level + 1], parts[0][level + 1:]).sum()))
        measured = np.divide(growths.get(0, growths[p.d]), growths[p.d],
                             out=np.full(p.d, np.nan), where=dropped & (growths[p.d] > 0.0))
        rows.append(TruncationRow(
            level=level,
            j_truncated=j_level,
            j_optimal=j_opt,
            measured_ratio=measured,
            predicted_ratio=np.where(dropped, predictions, np.nan),
        ))
    return rows
