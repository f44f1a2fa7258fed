"""Closed-loop control of a 40-node network with sinusoidal coupling.

The kernel cos(2*pi*(x - y)) has rank two, so the optimal control of the
whole network needs just two distinct scalar Riccati solves: one for the
auxiliary residual and one shared by the two eigendirections.  The
script synthesizes the gains, simulates the closed loop, splits the cost
by subsystem and verifies everything against the direct matrix-Riccati
oracle.
"""
import numpy as np

import graphon_lqr as gl

horizon, dt, n = 1.0, 1e-3, 40

kernel = gl.sinusoidal_graphon()
problem = gl.LqrProblem(
    alpha0=2.0,
    poly_b=gl.CoeffPoly([1.0, 0.5]),    # input operator 1 + s/2
    poly_q=gl.CoeffPoly([1.0, -2.0, 1.0]),   # state weight (1 - s)^2
    poly_p0=gl.CoeffPoly([1.0, -2.0, 1.0]),  # terminal weight (1 - s)^2
    graphon=kernel,
    horizon=horizon,
)

print("decoupled scalar problems:")
print(f"  auxiliary:      drift {problem.alpha0:g}, input {problem.beta0:g}, "
      f"weight {problem.q0:g}, terminal {problem.z0:g}")
for idx in range(problem.d):
    drift, gain, q, z = gl.eigensystem_params(problem, idx)
    print(f"  eigendirection {idx + 1}: drift {drift:g}, input {gain:g}, "
          f"weight {q:g}, terminal {z:g}")

gains = gl.synthesize_gains(problem, dt)  # columns L, M_1, M_2
# directions with equal eigenvalues share one solve
print(f"\ndistinct Riccati solves: {np.unique(kernel.lambdas).size + 1}")
gains_end = gains(horizon)
print(f"gain endpoints: L(T) = {gains_end[0]:.6f}, M(T) = {gains_end[1]:.6f}")

system = gl.build_step_system(gl.sample_step_entries(kernel, n), problem)
x0 = gl.initial_state(n, seed=7)
controller = gl.feedback_controller(problem, gains)
traj = gl.simulate(system, controller, x0, horizon, dt)
cost = gl.evaluate_cost(traj, system)

print(f"\nclosed-loop cost J = {cost.total:.6f}")
print(f"  auxiliary part {cost.aux:.6f}, eigendirection parts "
      f"{np.round(cost.eigen, 6)}")
print(f"  additivity check: {abs(cost.total - (cost.aux + cost.eigen.sum())):.2e}")
print(f"state norm shrink: {np.linalg.norm(traj.states[0]):.4f} -> "
      f"{np.linalg.norm(traj.states[-1]):.4f}")

report = gl.oracle_compare(system, x0, dt)
print(f"\nmatrix-Riccati oracle: relative cost gap {report.cost_rel_gap:.2e}, "
      f"max state gap {report.state_gap:.2e}, max P gap {report.p_gap:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    sub = slice(0, n, 4)
    axes[0].plot(traj.grid, traj.states[:, sub], lw=0.8)
    axes[0].set_title("states of every 4th node")
    axes[0].set_xlabel("t")
    axes[1].plot(gains.grid, gains.values[:, 0], label="auxiliary gain L")
    axes[1].plot(gains.grid, gains.values[:, 1], label="eigendirection gain M")
    axes[1].set_title("gain curves (Riccati time)")
    axes[1].set_xlabel("tau")
    axes[1].legend()
    fig.tight_layout()
    fig.savefig("sinusoidal_network.png", dpi=120)
    print("wrote sinusoidal_network.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
