"""Scalar and matrix Riccati solvers.

The scalar equation

    dPi/dt = 2*alpha*Pi - beta^2*Pi^2 + q,    Pi(0) = z0,

is solved explicitly through its Hamiltonian linearization by
`riccati_explicit`, vectorized over equations (the synthesis path), and
by RK4 in `riccati_path`, one `rk4_step` per grid step, the reference
the explicit solution is checked against.  Solutions are stored forward
in Riccati time tau and consumed by feedback laws as the time-to-go gain
``curve(T - t)``.

The matrix equation

    dP/dt = A' P + P A - P B B' P + Q,        P(0) = P0,

is the direct verification oracle for the decoupled synthesis.  It is
solved by the same Hamiltonian linearization in dense n x n form, one
exact step ``exp(H h)`` per grid step, so the oracle carries no
integration error of its own: a gap between oracle and synthesis is
rounding.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUpError
from .integrate import rk4_step, uniform_grid

# Most grid steps of the matrix Riccati solve taken from one node, with the
# powers E^1 ... E^m of the step exponential; more cost memory and, at n = 64,
# time.
_MAX_POWERS = 8


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
        # min and max carry any NaN or inf and allocate nothing of the path's size
        if not all(np.isfinite(a.min()) and np.isfinite(a.max())
                   for a in (grid, values) if a.size):
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


def _checked_params(alpha, beta, q, z0):
    """Parameters of scalar Riccati equations, broadcast to one shape.

    Raises `ValueError` naming the parameter when one is not finite, or
    when the state weight q or the initial value z0 is negative (they are
    quadratic cost weights, which keeps the solution nonnegative and
    bounded on any horizon).
    """
    names = ("alpha", "beta", "q", "z0")
    params = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, beta, q, z0)))
    for name, v in zip(names, params):
        if not np.isfinite(v).all():
            raise ValueError(f"Riccati parameter {name} must be finite, "
                             f"got {np.extract(~np.isfinite(v), v)[0]}")
    for name, v in zip(names[2:], params[2:]):
        if (v < 0.0).any():
            raise ValueError(f"Riccati parameter {name} must be >= 0, got {v.min()}")
    return params


def riccati_path(alpha, beta, q, z0, horizon: float, dt: float):
    """RK4-integrate one or many scalar Riccati equations on a shared grid.

    The reference integrator for `riccati_explicit`, one `rk4_step` per
    grid step.  Parameters may be scalars or equal-length arrays (one
    equation per entry), checked by `_checked_params`.  Returns ``(grid,
    values)`` with values of shape ``(len(grid),) + param_shape``.
    """
    alpha, beta, q, z0 = _checked_params(alpha, beta, q, z0)
    grid = uniform_grid(horizon, dt)
    beta2 = beta * beta

    def rhs(_t, y):
        return 2.0 * alpha * y - beta2 * y * y + q

    vals = np.empty(grid.shape + z0.shape)
    y = vals[0] = z0
    for k in range(grid.size - 1):
        t = grid[k]
        y = vals[k + 1] = rk4_step(rhs, t, grid[k + 1] - t, y, rhs(t, y))
    return grid, vals


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

    Accurate to a few ulps relative for either sign of alpha.  The
    parameters are checked by `_checked_params`, and the input gain must
    be nonzero.
    """
    alpha, beta, q, _ = _checked_params(alpha, beta, q, 0.0)
    if beta == 0.0:
        raise ZeroDivisionError(
            "no algebraic root for beta = 0; use the numeric solver")
    return float(_roots(alpha, beta, q))


def riccati_explicit(alpha, beta, q, z0, grid) -> np.ndarray:
    """Explicit solution of one or many scalar Riccati equations on a grid.

    Parameters broadcast and are checked as in `riccati_path` (one
    equation per entry, q and z0 nonnegative); returns values of shape
    ``(len(grid),) + param_shape``.  With ``Pi = X/Y`` the equation is
    the linear system ``[X; Y]' = H [X; Y]``, ``X(0) = z0``, ``Y(0) = 1``,
    ``H = [[alpha, q], [beta^2, -alpha]]``.  As ``H^2 = omega^2 I`` with
    ``omega = sqrt(alpha^2 + q*beta^2)``,
    ``exp(H t) = cosh(omega t) I + sinh(omega t)/omega H``; scaled by
    ``exp(-omega t)`` this gives (`_scaled_factors`)

        X_hat = z0*(g+ + E*g-) + q*s,    Y_hat = (g- + E*g+) + beta^2*z0*s,

    with ``E = exp(-2 omega t)``, ``s = (1 - E)/(2 omega)`` (``t`` in the
    limit omega -> 0) and ``g+- = (omega +- alpha)/(2 omega)``.  The
    smaller of g+- is formed as ``r^2/(2 omega (omega + |alpha|))``,
    r = |beta| sqrt(q), so no term cancels: every one is nonnegative and
    bounded, and Pi keeps full relative precision.  t = 0 returns z0 and
    a start at the positive algebraic root returns the root, both exactly.

    Raises `BlowUpError` when a value overflows (Y underflows to zero
    while X does not).
    """
    alpha, beta, q, z0 = _checked_params(alpha, beta, q, z0)
    times = np.asarray(grid, dtype=float)
    t = times.reshape((-1,) + (1,) * alpha.ndim)
    num, den, _ = _scaled_factors(alpha, beta, q, z0, t)
    with np.errstate(all="ignore"):  # 0/0 where Y underflows; overflow raises below
        vals = num / den
    # z0 = q = 0 stays at zero also where Y underflows
    vals = np.where(num == 0.0, 0.0, vals)
    vals = np.where((t == 0.0) | (z0 == _roots(alpha, beta, q)), z0, vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad.reshape(times.size, -1).any(axis=1)))
        raise BlowUpError(f"Riccati solution overflows at t = {times[k]:.6g}")
    return vals


def _scaled_factors(alpha, beta, q, z0, t):
    """``(X_hat, Y_hat, omega)`` of `riccati_explicit` at times ``t``.

    ``X = exp(omega t) X_hat`` and ``Y = exp(omega t) Y_hat``, so one
    evaluation gives both ``Pi = X_hat/Y_hat`` and
    ``ln Y = omega t + ln Y_hat``, where ``ln Y(T) + alpha T`` is
    ``integral_0^T beta^2 Pi``.  Parameters are checked arrays.
    """
    r, a = np.abs(beta) * np.sqrt(q), np.abs(alpha)
    omega = np.hypot(a, r)
    with np.errstate(all="ignore"):  # 0/0 in unused branches
        big = np.where(omega > 0.0, (omega + a) / (2.0 * omega), 0.5)
        small = np.where(omega > 0.0, r * (r / (omega + a)) / (2.0 * omega), 0.5)
        g_plus = np.where(alpha >= 0.0, big, small)
        g_minus = np.where(alpha >= 0.0, small, big)
        x = 2.0 * omega * t
        e = np.exp(-x)
        s = t * np.where(x > 0.0, -np.expm1(-x) / x, 1.0)
        return (z0 * (g_plus + e * g_minus) + q * s,
                (g_minus + e * g_plus) + beta * beta * z0 * s, omega)


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a degree-18 Taylor sum.

    ``m`` is scaled by a power of two into the open unit 1-norm ball,
    where the Taylor remainder is below 3/19! < 3e-17 of the norm of the
    result, and the sum is squared back.  A non-finite input or an
    overflow gives non-finite entries, not an exception.
    """
    s = max(0, int(np.frexp(np.abs(m).sum(axis=0).max())[1]))
    m = m / 2.0 ** s
    eye = np.eye(m.shape[0])
    e = eye
    for j in range(18, 0, -1):  # Horner: I + m/1 (I + m/2 (I + ...))
        e = eye + (m @ e) / j
    for _ in range(s):
        e = e @ e
    return e


def solve_matrix_riccati(a_mat, b_mat, q_mat, p0_mat,
                         horizon: float, dt: float) -> Curve:
    """Solve the matrix Riccati equation exactly on a uniform grid.

    With ``P = X Y^-1`` the equation is the linear system
    ``[X; Y]' = H [X; Y]``, ``X(0) = P0``, ``Y(0) = I``,
    ``H = [[A', Q], [B B', -A]]``.  With ``E = exp(H h)`` (`_expm`), a
    step of h takes P to ``(E11 P + E12)(E21 P + E22)^-1``, exact at any
    h.  The powers ``E^1 ... E^m`` take m grid steps from one node with
    one batched product and one batched solve; m is at most 8 and keeps
    ``m*h*|H|_1 <= 1`` (m >= 1), so that ``Y`` stays well conditioned
    on stiff problems.  Each new P is symmetrized, and the next m steps
    start from the last.  ``q_mat`` and ``p0_mat`` must be symmetric
    positive semidefinite.  Raises `BlowUpError`, naming the earliest
    time, when a value is not finite (the step overflows).
    """
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b_mat, dtype=float)
    q = np.asarray(q_mat, dtype=float)
    p0 = np.asarray(p0_mat, dtype=float)
    for name, m in (("A", a), ("B", b), ("Q", q), ("P0", p0)):
        if m.ndim != 2 or m.shape != a.shape:
            raise ValueError(f"matrix {name} must be square of shape {a.shape}, got {m.shape}")
    grid = uniform_grid(horizon, dt)
    ham = np.block([[a.T, q], [b @ b.T, -a]])
    return Curve(grid, _exact_path(ham * (horizon / (grid.size - 1)), p0, grid))


def _exact_path(ham_h: np.ndarray, p0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """P on every node of ``grid`` by exact steps ``exp(ham_h)`` from P0.

    The stepping of `solve_matrix_riccati`; ``ham_h`` is the Hamiltonian
    times the grid step.  Its work arrays die on return, before the
    caller checks the (K+1, n, n) path.
    """
    n, steps = p0.shape[0], grid.size - 1
    h_norm = np.abs(ham_h).sum(axis=0).max()
    count = max(1, min(_MAX_POWERS, int(1.0 / max(h_norm, 1.0 / _MAX_POWERS))))
    with np.errstate(all="ignore"):  # an overflow is reported below
        powers = np.empty((count, 2 * n, 2 * n))
        powers[0] = _expm(ham_h)
        for j in range(1, count):
            powers[j] = powers[j - 1] @ powers[0]
        left, right = powers[:, :, :n], powers[:, :, n:]
        vals = np.empty((grid.size, n, n))
        vals[0] = 0.5 * (p0 + p0.T)
        xy = np.empty((count, 2 * n, n))
        for k in range(0, steps, count):
            m = min(count, steps - k)
            np.matmul(left[:m], vals[k], out=xy[:m])  # [X; Y] after 1..m steps
            xy[:m] += right[:m]
            # P = X Y^-1 solves Y' P' = X'; P is symmetric
            p = np.linalg.solve(xy[:m, n:].swapaxes(1, 2), xy[:m, :n].swapaxes(1, 2))
            new = vals[k + 1:k + 1 + m]
            np.add(p, p.swapaxes(1, 2), out=new)
            new *= 0.5
            bad = ~np.isfinite(new).reshape(m, -1).all(axis=1)
            if bad.any():
                raise BlowUpError("matrix Riccati solution is not finite at "
                                  f"t = {grid[k + 1 + np.argmax(bad)]:.6g}")
    return vals
