"""Scalar and matrix Riccati solvers.

The scalar equation

    dPi/dt = 2*alpha*Pi - beta^2*Pi^2 + q,    Pi(0) = z0,

is solved numerically (RK4) and in closed form via its positive
algebraic root.  Solutions are stored forward in Riccati time tau and
consumed by feedback laws as the time-to-go gain ``curve(T - t)``.

The matrix equation

    dP/dt = A' P + P A - P B B' P + Q,        P(0) = P0,

is the direct verification oracle for the decoupled synthesis; it uses
the same one-step integrator so accuracy comparisons are like-for-like.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    Parameters may be scalars or equal-length arrays (one equation per
    entry).  Returns ``(grid, values)`` with values of shape
    ``(len(grid),) + param_shape``.
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


def algebraic_root(alpha: float, beta: float, q: float) -> float:
    """Positive root S of ``2*alpha*S - beta^2*S^2 + q = 0``.

    ``S = sqrt(alpha^2/beta^4 + q/beta^2) + alpha/beta^2``; the input
    gain must be nonzero.
    """
    if beta == 0.0:
        raise ZeroDivisionError(
            "no algebraic root for beta = 0; use the numeric solver")
    if q < 0.0:
        raise ValueError(f"state weight q must be >= 0, got {q}")
    b2 = beta * beta
    return float(np.sqrt((alpha / b2) ** 2 + q / b2) + alpha / b2)


def solve_riccati_closed_form(spec: ScalarRiccatiSpec) -> Curve:
    """Evaluate the explicit scalar Riccati solution on the grid.

    With S the positive algebraic root and a = -2*(alpha - beta^2*S) the
    decay rate,

        Pi_t = [exp(a*t)/(z0 - S) + beta^2 * (exp(a*t) - 1)/a]^(-1) + S,

    where the bracketed integral degenerates to ``t`` when a = 0.  The
    equilibrium start z0 = S returns the constant curve at S, and
    beta = 0 falls back to the closed form of the then-linear equation.

    With q, z0 >= 0 the solution never crosses S away from t = 0 (it
    approaches the root monotonically from its starting side), so the
    reciprocal transform stays valid on the whole horizon.
    """
    grid = uniform_grid(spec.horizon, spec.dt)
    if spec.beta == 0.0:
        # dPi/dt = 2*alpha*Pi + q  (linear)
        if spec.alpha == 0.0:
            vals = spec.z0 + spec.q * grid
        else:
            e = np.exp(2.0 * spec.alpha * grid)
            vals = e * spec.z0 + spec.q * (e - 1.0) / (2.0 * spec.alpha)
        return Curve(grid, vals)
    s = algebraic_root(spec.alpha, spec.beta, spec.q)
    if spec.z0 == s:
        return Curve(grid, np.full_like(grid, s))
    # a = 2*sqrt(alpha^2 + q*beta^2) >= 0 for the positive root
    a = -2.0 * (spec.alpha - spec.beta ** 2 * s)
    if a * grid[-1] <= 300.0:
        growth = np.exp(a * grid)
        integral = np.expm1(a * grid) / a if a != 0.0 else grid.copy()
        inv = growth / (spec.z0 - s) + spec.beta ** 2 * integral
        return Curve(grid, 1.0 / inv + s)
    # exp(a*t) would overflow; scale the bracket by exp(-a*t) instead
    decay = np.exp(-a * grid)
    c = 1.0 / (spec.z0 - s) + spec.beta ** 2 / a
    return Curve(grid, s + decay / (c - spec.beta ** 2 / a * decay))


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
