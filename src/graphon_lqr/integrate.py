"""Fixed-step classic Runge-Kutta integration.

The matrix Riccati oracle and the scalar Riccati reference run this
4th-order one-step scheme on a uniform grid, and the closed-loop
simulation runs the same scheme; gain synthesis uses the explicit
Riccati solution instead.
"""
from __future__ import annotations

import numpy as np

from .errors import BlowUpError


def uniform_grid(horizon: float, dt: float) -> np.ndarray:
    """Uniform time grid 0 = t_0 < ... < t_K = horizon with step ~dt.

    The number of steps is ``round(horizon / dt)``, so the actual step is
    ``horizon / K``; ``dt`` sets the resolution, the grid always ends
    exactly at ``horizon``.
    """
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be a positive finite number, got {horizon}")
    if not np.isfinite(dt) or dt <= 0.0 or dt > horizon:
        raise ValueError(f"dt must satisfy 0 < dt <= horizon, got dt={dt}, horizon={horizon}")
    steps = max(1, int(round(horizon / dt)))
    return np.linspace(0.0, horizon, steps + 1)


def rk4_path(rhs, y0, grid: np.ndarray) -> np.ndarray:
    """Integrate ``y' = rhs(t, y)`` over ``grid`` with classic RK4.

    Parameters
    ----------
    rhs : callable
        Right-hand side ``rhs(t, y) -> array_like`` with the shape of ``y``.
    y0 : array_like
        Initial value; any shape (scalar, vector, matrix).
    grid : ndarray
        Increasing time samples; the first entry is the initial time.

    Returns
    -------
    ndarray of shape ``(len(grid),) + y0.shape`` with the solution at
    every grid node.

    Raises
    ------
    BlowUpError
        If any state entry becomes non-finite; the message names the
        offending step and time.
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(grid),) + y.shape)
    out[0] = y
    for k in range(len(grid) - 1):
        t = grid[k]
        h = grid[k + 1] - t
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise BlowUpError(
                f"integration blew up at step {k + 1} (t = {grid[k + 1]:.6g}): "
                "non-finite state value"
            )
        out[k + 1] = y
    return out
