"""Fixed-step classic Runge-Kutta integration.

`rk4_step` is the only RK4 stage formula of the package: the scalar
Riccati reference `riccati_path` and the generic closed loop, which runs
arbitrary controllers, take one step of one scalar time per grid step.
Gain synthesis, the closed-form run of a problem's feedback law and its
cost, the truncation study and the matrix Riccati oracle and its closed
loop use the exact Hamiltonian solution instead.
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
    control it applies at ``t``).  Raises `BlowUpError` if any entry of
    the new state is non-finite, naming the end time ``t + h``; both
    callers step with overflow warnings off (`np.errstate`), so that an
    overflow anywhere in a step is reported by this check alone.
    """
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(y).all():
        raise BlowUpError(
            f"integration blew up in the step to t = {t + h:.6g}: non-finite state value")
    return y
