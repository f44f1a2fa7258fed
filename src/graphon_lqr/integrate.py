"""Fixed-step classic Runge-Kutta integration.

`rk4_step` is the only RK4 stage formula of the package: the Riccati
oracle and reference run it on a uniform grid (`rk4_path`), the generic
closed loop once per step and the modal closed loop once for all steps.
Gain synthesis uses the explicit Riccati solution instead.
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


def rk4_step(rhs, t: float, h: float, y: np.ndarray, k1) -> np.ndarray:
    """One classic RK4 step of ``y' = rhs(t, y)`` from ``t`` to ``t + h``.

    ``k1`` is the first slope ``rhs(t, y)``, passed in so that a caller
    can keep what it computed on the way (the closed loop records the
    control it applies at ``t``).  Array ``t`` and ``h`` broadcasting
    against ``y`` take many independent steps at once.  Raises
    `BlowUpError` if any entry of the new state is non-finite, naming the
    end time ``t + h`` of the earliest failing step.
    """
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    finite = np.isfinite(y)
    if not finite.all():
        end = np.broadcast_to(t + h, y.shape)[~finite].min()
        raise BlowUpError(
            f"integration blew up in the step to t = {end:.6g}: non-finite state value")
    return y


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
        time at the end of the offending step.
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(grid),) + y.shape)
    out[0] = y
    for k in range(len(grid) - 1):
        t = grid[k]
        y = out[k + 1] = rk4_step(rhs, t, grid[k + 1] - t, y, rhs(t, y))
    return out
