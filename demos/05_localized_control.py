"""Localized control: each node computes its own input.

The optimal feedback needs only (i) the node's own state, (ii) the
eigenfunction values at the node's own index, (iii) the global
eigenstate aggregates, and (iv) one row of gains.  This script computes
one node's input by hand from exactly these and compares it with the
law applied to the whole network, reads the continuum law at the same
node, and shows that propagating the aggregates from the initial state
gives the same closed loop as re-measuring them.
"""
import numpy as np

import graphon_lqr as gl
from graphon_lqr.graphon import cell_index

horizon, dt, n, t = 1.0, 1e-3, 40, 0.25

kernel = gl.sinusoidal_graphon()
problem = gl.LqrProblem(2.0, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([1.0, -2.0, 1.0]),
                        gl.CoeffPoly([1.0, -2.0, 1.0]), kernel, horizon)
law = gl.feedback_controller(problem, gl.synthesize_gains(problem, dt))
rng = np.random.default_rng(5)
x = rng.standard_normal(n)

aggregates = gl.project_state(x, kernel).eigen_coords  # shared by every node
row = law.gains_at(t)  # [beta0*L, b_1*M_1, b_2*M_2] at time-to-go T - t


def node_input(gamma, own_state):
    """One node's input from its own state and index, the aggregates and the gains."""
    f_here = kernel.eigfun_values(gamma)
    residual = own_state - f_here @ aggregates
    return -row[0] * residual - row[1:] @ (aggregates * f_here)


print("== what a single node needs ==")
node = 14
gamma = (node + 0.5) / n  # this node's index on [0, 1]
print(f"node {node} at index {gamma:.4f}:")
print(f"  own state:                 {x[node]:+.6f}")
print(f"  eigenfunction values here: {np.round(kernel.eigfun_values(gamma), 6)}")
print(f"  eigenstate aggregates:     {np.round(aggregates, 6)}")
print(f"  gain row:                  {np.round(row, 6)}")
u_network = law(t, x)
print(f"  input computed at the node: {node_input(gamma, x[node]):+.6f}")
print(f"  law(t, x) at its cell:      {u_network[cell_index(gamma, n)]:+.6f}")
mids = gl.midpoint_grid(n)
u_nodes = np.array([node_input(g, x[i]) for i, g in enumerate(mids)])
print(f"max difference over all {n} nodes: {np.abs(u_nodes - u_network).max():.2e}")

print("\n== the continuum law at the same node ==")
profile = lambda g: 0.5 + np.cos(2 * np.pi * np.asarray(g, float))
u_fun = law(t, profile)  # a function of the node index
print(f"u(gamma) for the state 0.5 + cos(2 pi gamma): {u_fun(gamma):+.6f}")
print(f"vector law on the sampled state, same cell:  "
      f"{law(t, profile(gl.midpoint_grid(n)))[node]:+.6f}")

print("\n== aggregates propagated from t = 0 instead of re-measured ==")
system = gl.build_step_system(gl.sample_step_entries(kernel, n), problem)
x0 = gl.initial_state(n, seed=9)
# a plain callable makes the simulator measure the aggregates at every stage
live = gl.simulate(system, lambda t, x: law(t, x), x0, horizon, dt)
# the law itself lets it propagate each aggregate by its scalar closed loop
propagated = gl.simulate(system, law, x0, horizon, dt)
print(f"max trajectory difference: {np.abs(live.states - propagated.states).max():.2e}")
print("each node can integrate the aggregate flow locally from the initial")
print("aggregates, so no network-wide communication is needed after t = 0.")
