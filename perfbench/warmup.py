"""Set-up probe: import graphon_lqr and finish one warm-up solve.

    PYTHONPATH=src python3 perfbench/warmup.py

The solve assembles a 400-node sinusoidal network, whose positive
semidefinite checks are multi-threaded LAPACK calls of moderate size; the
first such call in a process pays the BLAS start-up (about 0.9 s on
2 cores when it is not warm), which would otherwise land in the first
timed scenario.  The launcher times fresh interpreters running this file
as ``setup_s``, and the workload process runs `warm_up` before its timed
region.
"""
import graphon_lqr as gl


def warm_up(n: int = 400):
    kernel = gl.sinusoidal_graphon()
    weight = gl.CoeffPoly([1.0, -2.0, 1.0])
    problem = gl.LqrProblem(2.0, gl.CoeffPoly([1.0, 0.5]), weight, weight, kernel, 1.0)
    system = gl.build_step_system(gl.sample_step_entries(kernel, n), problem)
    gains = gl.synthesize_gains(problem, 1e-2)
    traj = gl.simulate(system, gl.feedback_controller(problem, gains),
                       gl.initial_state(n, 0), 1.0, 1e-2)
    return gl.evaluate_cost(traj, system).total


if __name__ == "__main__":
    warm_up()
