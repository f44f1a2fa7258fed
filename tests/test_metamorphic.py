"""Metamorphic relations of the LQR problem, checked through the whole pipeline.

Each relation is an exact identity of the problem: a transformed problem
or initial state has a known cost, known states and the same truncation
ratios, so no reference solution is needed.  Each test checks the
decoupled cost J and the oracle's value (`oracle_compare`, which also runs
the law in closed form) and a row of `truncation_study`, on small n and K.
"""
import dataclasses

import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr import cli

from conftest import make_rank_kernel

N, STEPS, LEVEL = 12, 40, 1
# spectrum {0, 0.6, -0.3}; poly_q = (1 - s/0.6)^2 vanishes on the first
# eigenvalue, where Horner's sum rounds to -2.2e-16
PAIRS = [{"lambda": 0.6, "fun": "cos", "freq": 1}, {"lambda": -0.3, "fun": "sin", "freq": 2}]
POLY_B, POLY_Q, POLY_P0 = (1.0, 0.5), (1.0, -2.0 / 0.6, 1.0 / 0.36), (0.5, 0.2)


def scaled_problem(s=1.0, c=1.0):
    """The base problem with time scaled by 1/s and cost by c: drift, kernel and
    horizon (s*alpha0, s*lam, T/s); coefficient k of poly_b times sqrt(s/c)/s^k,
    of poly_q times c*s/s^k and of poly_p0 times c/s^k."""
    kernel = gl.graphon_from_spec(
        {"type": "finite_rank", "pairs": [dict(pair, **{"lambda": s * pair["lambda"]})
                                          for pair in PAIRS]})

    def poly(coeffs, factor):
        return gl.CoeffPoly([factor * v / s ** k for k, v in enumerate(coeffs)])

    return gl.LqrProblem(0.5 * s, poly(POLY_B, np.sqrt(s / c)), poly(POLY_Q, c * s),
                         poly(POLY_P0, c), kernel, 1.0 / s)


def pipeline(system, x0, level=LEVEL):
    """The oracle report (J, the oracle's value, the law's closed-form run)
    and the truncation row at ``level``, on K = STEPS steps."""
    horizon = system.problem.horizon
    report = gl.oracle_compare(system, x0, horizon / STEPS)
    return report, gl.truncation_study(system, x0, [level])[0]


def sampled(problem, n=N):
    return gl.build_step_system(gl.sample_step_entries(problem.graphon, n), problem)


def assert_related(report, row, base, base_row, cost=1.0, rel=1e-12):
    """J, the oracle's value and the row's costs are ``cost`` times the base's;
    the measured ratios are the base's."""
    for value, ref in ((report.j_decoupled, base.j_decoupled),
                       (report.j_oracle, base.j_oracle),
                       (row.j_truncated, base_row.j_truncated),
                       (row.j_optimal, base_row.j_optimal)):
        assert value == pytest.approx(cost * ref, rel=rel, abs=0.0)
    dropped = np.arange(row.measured_ratio.size) >= row.level
    assert np.isfinite(row.measured_ratio[dropped]).all()
    np.testing.assert_allclose(row.measured_ratio, base_row.measured_ratio, rtol=rel)


@pytest.mark.parametrize("c", [1e-13, 1e13])
def test_homogeneity(c):
    # x0 * c costs c^2 J with the same terminal ratios, which match their
    # prediction (a constant input polynomial)
    one = gl.CoeffPoly([1.0])
    problem = gl.LqrProblem(0.5, one, one, one, gl.sinusoidal_graphon(), 1.0)
    system = sampled(problem)
    x0 = gl.initial_state(N, 3)
    base, base_row = pipeline(system, x0, 0)
    report, row = pipeline(system, c * x0, 0)
    assert_related(report, row, base, base_row, cost=c * c)
    np.testing.assert_allclose(row.measured_ratio, row.predicted_ratio, rtol=1e-12)
    np.testing.assert_allclose(report.run.states, c * base.run.states, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [1e-2, 1e4, 1e8])
def test_cost_scaling(c):
    # (Q, P0) * c with B / sqrt(c): J * c, the same states, inputs * sqrt(c);
    # the oracle balances its Hamiltonian, so its value moves only by rounding
    base_system, system = sampled(scaled_problem()), sampled(scaled_problem(c=c))
    x0 = gl.initial_state(N, 11)
    base, base_row = pipeline(base_system, x0)
    report, row = pipeline(system, x0)
    assert_related(report, row, base, base_row, cost=c)
    np.testing.assert_allclose(report.run.states, base.run.states, rtol=1e-12)
    np.testing.assert_allclose(report.run.controls, np.sqrt(c) * base.run.controls,
                               rtol=1e-11, atol=1e-14 * np.sqrt(c))


@pytest.mark.parametrize("s", [3.0, 0.2])
def test_time_scaling(s):
    # (alpha0, lam, T) -> (s alpha0, s lam, T/s) with B * sqrt(s) and Q * s:
    # the same J and the same states at matching times
    base_system, system = sampled(scaled_problem()), sampled(scaled_problem(s=s))
    x0 = gl.initial_state(N, 13)
    base, base_row = pipeline(base_system, x0)
    report, row = pipeline(system, x0)
    assert_related(report, row, base, base_row, rel=1e-11)
    np.testing.assert_allclose(report.run.grid * s, base.run.grid, rtol=1e-14)
    np.testing.assert_allclose(report.run.states, base.run.states, rtol=1e-11, atol=1e-14)


def test_relabeling_a_csv_network(tmp_path):
    # permuting the cells of a CSV step network and of x0 changes nothing but
    # the order of the states
    _, entries = make_rank_kernel(np.random.default_rng(17), 10, 3)
    perm = np.random.default_rng(18).permutation(10)
    x0 = gl.initial_state(10, 19)
    runs = []
    for name, matrix, state in (("base", entries, x0),
                                ("relabeled", entries[np.ix_(perm, perm)], x0[perm])):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
        scenario = dataclasses.replace(
            cli.preset_example_vii(), n=None, poly_q=list(POLY_Q), poly_p0=list(POLY_P0),
            graphon={"type": "step", "matrix_csv": str(path)})
        _, system, _ = cli.build_experiment(scenario)
        runs.append(pipeline(system, state))
    (base, base_row), (report, row) = runs
    assert_related(report, row, base, base_row)
    np.testing.assert_allclose(report.run.states, base.run.states[:, perm],
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("flipped", [0, 2])
def test_flipping_an_eigenfunction(flipped):
    # -f_l spans the same direction: nothing changes
    g, entries = make_rank_kernel(np.random.default_rng(23), 10, 3)
    pairs = list(g.pairs)
    pairs[flipped] = gl.EigenPair(pairs[flipped].lam,
                                  gl.StepFunction(-pairs[flipped].fun.values))
    x0 = gl.initial_state(10, 29)
    runs = []
    for kernel in (g, gl.FiniteRankGraphon(pairs)):
        problem = gl.LqrProblem(0.4, gl.CoeffPoly([0.8, 0.3]), gl.CoeffPoly([1.0]),
                                gl.CoeffPoly([0.5]), kernel, 1.0)
        runs.append(pipeline(gl.build_step_system(entries, problem), x0))
    (base, base_row), (report, row) = runs
    assert_related(report, row, base, base_row)
    np.testing.assert_allclose(report.run.states, base.run.states, rtol=1e-12, atol=1e-15)
