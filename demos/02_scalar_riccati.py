"""Scalar Riccati equations: the explicit solution vs its RK4 reference.

The gain equation dPi/dt = 2*alpha*Pi - beta^2*Pi^2 + q relaxes
monotonically toward its positive algebraic root.  Synthesis evaluates
its explicit solution (the Hamiltonian linearization Pi = X/Y); the RK4
solver is kept as the reference.  This script shows the two agree to the
integrator's precision, also for a near-zero input gain (beta = 1e-6),
and plots a family of gain curves.
"""
import numpy as np

import graphon_lqr as gl


def long_time_limit(alpha, beta, q):
    """The explicit solution from 0 after a long time: the positive algebraic root."""
    return float(gl.riccati_explicit(alpha, beta, q, 0.0, [50.0])[0])


print("== algebraic roots, as long-time limits ==")
for alpha, beta, q in [(2.0, 1.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 1.0, 0.0)]:
    s = long_time_limit(alpha, beta, q)
    resid = 2 * alpha * s - beta ** 2 * s ** 2 + q
    print(f"  alpha={alpha:+.1f} beta={beta:.1f} q={q:.1f} -> "
          f"S={s:.10f} (residual {resid:.1e})")

print("\n== numeric vs closed form ==")
cases = [
    ("relaxing upward", (2.0, 1.0, 1.0, 1.0)),
    ("tanh profile", (0.0, 1.0, 1.0, 0.0)),
    ("relaxing downward", (-0.5, 1.0, 0.3, 2.0)),
    ("near-zero input", (1.0, 1e-6, 1.0, 0.5)),
]
for label, params in cases:  # (alpha, beta, q, z0)
    grid, num = gl.riccati_path(*params, 3.0, 1e-4)
    gap = np.abs(num - gl.riccati_explicit(*params, grid)).max()
    print(f"  {label:>18}: final {num[-1]:.8f}, "
          f"closed-form gap {gap:.2e}")

print("\nanalytic anchor: the tanh profile satisfies Pi(t) = tanh(t)")
_, num = gl.riccati_path(0.0, 1.0, 1.0, 0.0, 1.0, 1e-4)
print(f"  Pi(1) = {num[-1]:.12f}, tanh(1) = {np.tanh(1.0):.12f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for q in (0.25, 0.5, 1.0, 2.0):
        grid = gl.uniform_grid(3.0, 1e-3)
        ax.plot(grid, gl.riccati_explicit(0.5, 1.0, q, 0.0, grid), label=f"q = {q:g}")
        ax.axhline(long_time_limit(0.5, 1.0, q), ls=":", lw=0.8, color="gray")
    ax.set_xlabel("Riccati time tau")
    ax.set_ylabel("gain")
    ax.set_title("gain curves relax to their algebraic roots")
    ax.legend()
    fig.tight_layout()
    fig.savefig("riccati_gains.png", dpi=120)
    print("\nwrote riccati_gains.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
