"""Scalar and matrix Riccati solvers.

The scalar equation

    dPi/dt = 2*alpha*Pi - beta^2*Pi^2 + q,    Pi(0) = z0,

is solved explicitly through its Hamiltonian linearization by
`riccati_explicit`, vectorized over equations (the synthesis path), and
by RK4 in `riccati_path`, the reference the explicit solution is checked
against.  Solutions are stored forward in Riccati time tau and consumed
by feedback laws as the time-to-go gain ``curve(T - t)``.

The matrix equation

    dP/dt = A' P + P A - P B B' P + Q,        P(0) = P0,

is the direct verification oracle for the decoupled synthesis, integrated
by RK4.  The synthesis does not share that integrator, so a gap between
oracle and synthesis also contains the oracle's own O(h^4) RK4 error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .integrate import rk4_path, uniform_grid


@dataclass(frozen=True)
class ScalarRiccatiSpec:
    """Parameters of one scalar Riccati solve.

    ``q`` and ``z0`` must be nonnegative (they are quadratic cost
    weights), which keeps the solution nonnegative and bounded on any
    horizon.
    """

    alpha: float
    beta: float
    q: float
    z0: float
    horizon: float
    dt: float

    def __post_init__(self):
        vals = (self.alpha, self.beta, self.q, self.z0, self.horizon, self.dt)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"all Riccati parameters must be finite, got {self}")
        if self.q < 0.0:
            raise ValueError(f"state weight q must be >= 0, got {self.q}")
        if self.z0 < 0.0:
            raise ValueError(f"initial value z0 must be >= 0, got {self.z0}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.dt <= self.horizon:
            raise ValueError(f"dt must satisfy 0 < dt <= horizon, got {self.dt}")


class Curve:
    """Samples on a uniform time grid, linearly interpolated in time.

    ``values`` has shape ``(len(grid),) + shape``: scalar gains, rows of
    gains or matrices.  A time t reads ``v[k] + w*(v[k+1] - v[k])`` at
    ``pos = (t - t0)/h = k + w``; times at or past either end of the grid
    return the end sample.  Array times use the scalar arithmetic
    element by element, so both give identical results.
    """

    __slots__ = ("grid", "values", "_t0", "_t1", "_h", "_last")

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or values.shape[:1] != grid.shape:
            raise ValueError("values need one sample per node of a 1-d grid of 2+ nodes")
        steps = np.diff(grid)
        if steps[0] <= 0.0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform and increasing")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("grid and values must be finite")
        self.grid = grid
        self.values = values
        self._t0, self._t1, self._h = float(grid[0]), float(grid[-1]), float(steps[0])
        self._last = grid.size - 2  # index of the last interval

    def __call__(self, t):
        v = self.values
        if isinstance(t, (float, int)):  # np.float64 is a float
            if t <= self._t0:
                return v[0]
            if t >= self._t1:
                return v[-1]
            pos = (t - self._t0) / self._h
            k = min(int(pos), self._last)
            out = v[k + 1] - v[k]  # the blend below, in place on one temporary
            out *= pos - k
            out += v[k]
            return out
        t = np.asarray(t, dtype=float)
        pos = (t - self._t0) / self._h
        k = np.clip(pos, 0.0, self._last).astype(int)
        trail = (...,) + (None,) * (v.ndim - 1)  # broadcast over the sample shape
        blend = v[k] + (pos - k)[trail] * (v[k + 1] - v[k])
        return np.where((t <= self._t0)[trail], v[0],
                        np.where((t >= self._t1)[trail], v[-1], blend))


def riccati_path(alpha, beta, q, z0, horizon: float, dt: float):
    """RK4-integrate one or many scalar Riccati equations on a shared grid.

    The reference integrator for `riccati_explicit`.  Parameters may be
    scalars or equal-length arrays (one equation per entry).  Returns
    ``(grid, values)`` with values of shape ``(len(grid),) + param_shape``.
    """
    alpha, beta, q, z0 = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float),
        np.asarray(q, float), np.asarray(z0, float))
    grid = uniform_grid(horizon, dt)
    beta2 = beta * beta

    def rhs(_t, y):
        return 2.0 * alpha * y - beta2 * y * y + q

    return grid, rk4_path(rhs, z0, grid)


def solve_riccati_numeric(spec: ScalarRiccatiSpec) -> Curve:
    """Solve the scalar Riccati equation with classic RK4."""
    grid, vals = riccati_path(spec.alpha, spec.beta, spec.q, spec.z0,
                              spec.horizon, spec.dt)
    return Curve(grid, vals)


def _roots(alpha, beta, q):
    """Positive roots of ``2*alpha*S - beta^2*S^2 + q`` (array arithmetic).

    ``S = (alpha + omega)/beta^2`` with ``omega = sqrt(alpha^2 + q*beta^2)``;
    for alpha < 0 that sum cancels, so the equal ``q/(omega - alpha)`` is
    used there.  Where beta = 0 and alpha >= 0 there is no root (inf/nan).
    """
    omega = np.hypot(alpha, np.abs(beta) * np.sqrt(q))
    with np.errstate(all="ignore"):
        return np.where(alpha < 0.0, q / (omega - alpha), (alpha + omega) / (beta * beta))


def algebraic_root(alpha: float, beta: float, q: float) -> float:
    """Positive root S of ``2*alpha*S - beta^2*S^2 + q = 0``.

    Accurate to a few ulps relative for either sign of alpha; the input
    gain must be nonzero.
    """
    if beta == 0.0:
        raise ZeroDivisionError(
            "no algebraic root for beta = 0; use the numeric solver")
    if q < 0.0:
        raise ValueError(f"state weight q must be >= 0, got {q}")
    return float(_roots(alpha, beta, q))


def riccati_explicit(alpha, beta, q, z0, grid) -> np.ndarray:
    """Explicit solution of one or many scalar Riccati equations on a grid.

    Parameters broadcast as in `riccati_path` (one equation per entry,
    q and z0 nonnegative); returns values of shape
    ``(len(grid),) + param_shape``.  With ``Pi = X/Y`` the equation is
    the linear system ``[X; Y]' = H [X; Y]``, ``X(0) = z0``, ``Y(0) = 1``,
    ``H = [[alpha, q], [beta^2, -alpha]]``.  As ``H^2 = omega^2 I`` with
    ``omega = sqrt(alpha^2 + q*beta^2)``,
    ``exp(H t) = cosh(omega t) I + sinh(omega t)/omega H``; scaled by
    ``exp(-omega t)`` this gives

        X = z0*(g+ + E*g-) + q*s,    Y = (g- + E*g+) + beta^2*z0*s,

    with ``E = exp(-2 omega t)``, ``s = (1 - E)/(2 omega)`` (``t`` in the
    limit omega -> 0) and ``g+- = (omega +- alpha)/(2 omega)``.  The
    smaller of g+- is formed as ``r^2/(2 omega (omega + |alpha|))``,
    r = |beta| sqrt(q), so no term cancels: every one is nonnegative and
    bounded, and Pi keeps full relative precision.  t = 0 returns z0 and
    a start at the positive algebraic root returns the root, both exactly.

    Raises `BlowUpError` when a value overflows (Y underflows to zero
    while X does not).
    """
    alpha, beta, q, z0 = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float),
        np.asarray(q, float), np.asarray(z0, float))
    times = np.asarray(grid, dtype=float)
    t = times.reshape((-1,) + (1,) * alpha.ndim)
    r, a = np.abs(beta) * np.sqrt(q), np.abs(alpha)
    omega = np.hypot(a, r)
    with np.errstate(all="ignore"):  # 0/0 in unused branches; overflow raises below
        big = np.where(omega > 0.0, (omega + a) / (2.0 * omega), 0.5)
        small = np.where(omega > 0.0, r * (r / (omega + a)) / (2.0 * omega), 0.5)
        g_plus = np.where(alpha >= 0.0, big, small)
        g_minus = np.where(alpha >= 0.0, small, big)
        x = 2.0 * omega * t
        e = np.exp(-x)
        s = t * np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
        num = z0 * (g_plus + e * g_minus) + q * s
        vals = num / ((g_minus + e * g_plus) + beta * beta * z0 * s)
    # z0 = q = 0 stays at zero also where Y underflows
    vals = np.where(num == 0.0, 0.0, vals)
    vals = np.where((t == 0.0) | (z0 == _roots(alpha, beta, q)), z0, vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad.reshape(times.size, -1).any(axis=1)))
        raise BlowUpError(f"Riccati solution overflows at t = {times[k]:.6g}")
    return vals


def solve_riccati_closed_form(spec: ScalarRiccatiSpec) -> Curve:
    """Evaluate the explicit scalar Riccati solution on the grid.

    One equation of `riccati_explicit`; raises `BlowUpError` where the
    solution overflows.
    """
    grid = uniform_grid(spec.horizon, spec.dt)
    return Curve(grid, riccati_explicit(spec.alpha, spec.beta, spec.q, spec.z0, grid))


def solve_matrix_riccati(a_mat, b_mat, q_mat, p0_mat,
                         horizon: float, dt: float) -> Curve:
    """RK4-integrate the matrix Riccati equation, re-symmetrizing each step.

    ``q_mat`` and ``p0_mat`` must be symmetric positive semidefinite;
    symmetry of the path is enforced by averaging with the transpose
    after every step.
    """
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b_mat, dtype=float)
    q = np.asarray(q_mat, dtype=float)
    p0 = np.asarray(p0_mat, dtype=float)
    for name, m in (("A", a), ("B", b), ("Q", q), ("P0", p0)):
        if m.ndim != 2 or m.shape != a.shape:
            raise ValueError(f"matrix {name} must be square of shape {a.shape}, got {m.shape}")
    bbt = b @ b.T
    at = np.ascontiguousarray(a.T)
    grid = uniform_grid(horizon, dt)

    def rhs(_t, p):
        w = at @ p
        r = w + w.T - p @ bbt @ p + q
        return 0.5 * (r + r.T)

    vals = rk4_path(rhs, 0.5 * (p0 + p0.T), grid)
    return Curve(grid, vals)
