"""Differential test of the oracle's self-certificate on random problems.

It sits beside the acceptance suite and leaves its criteria and
tolerances as they are.  Wherever `oracle_compare` answers, the
certificate has passed (``oracle_self_gap <= 1e-8``) and the oracle's cost
stays within ``SELF_GAP_FACTOR`` times its self-gap, plus a floor of
``ROUNDING``, of the decoupled synthesis, whose value is exact; wherever it
does not answer, it refuses with `NumericError`.  The problems are random
low-rank ones (`oracle_problem`): d = 1-5 kernel eigenpairs with |lambda|
in [0.05, 1.5], n = 6-40 cells, an input polynomial of degree 0-2 whose
constant term beta0 is 0 in 30% of the draws (an uncontrollable residual,
along which the oracle loses precision as P grows like exp(2 alpha0 t)),
alpha0 in [-2, 3] with T = 1 or, in half the draws, alpha0*T in [-2, 16]
with T = 10, and 50-400 grid steps.

The self-gap measures the rounding of the oracle's steps, not that of its
Hamiltonian, which every pass shares, so the factor is an observation, not
a bound: over 2000 more draws of this kind the largest factor the floor
needed was 18, and over 1500 harsher ones (beta0 = 0 in half, T = 10 in
60% with alpha0 in [0.5, 1.6]) it was 11.  The check that steps by the
loop's own ``E^m`` alone needed 222 and 286 there.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
from graphon_lqr import riccati as riccati_module

from conftest import admissible_poly, input_poly, make_rank_kernel

SELF_GAP_FACTOR = 100.0
ROUNDING = 1e-10


def oracle_problem(d: int, n: int, seed: int):
    """``(system, x0, dt)`` of a random problem, drawn as the module says."""
    rng = np.random.default_rng(seed)
    g, entries = make_rank_kernel(rng, n, d, lam_range=(0.05, 1.5))
    degree = int(rng.integers(0, 3))
    poly_b = input_poly(rng, degree)
    if rng.random() < 0.3:  # beta0 = 0
        poly_b = gl.CoeffPoly([0.0, *poly_b.coeffs[1:]] if degree
                              else [0.0, rng.uniform(0.3, 1.0)])
    horizon = 10.0 if rng.random() < 0.5 else 1.0
    alpha0 = rng.uniform(-0.2, 1.6) if horizon > 1.0 else rng.uniform(-2.0, 3.0)
    p = gl.LqrProblem(alpha0, poly_b, admissible_poly(rng, g.lambdas, int(rng.integers(0, 3))),
                      admissible_poly(rng, g.lambdas, int(rng.integers(0, 3))), g, horizon)
    steps = int(rng.integers(50, 401))
    return gl.build_step_system(entries, p), gl.initial_state(n, int(rng.integers(1000))), \
        horizon / steps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.builds(oracle_problem, st.integers(1, 5), st.integers(6, 40),
                 st.integers(0, 2 ** 32 - 1)))
def test_an_answer_the_oracle_certifies_is_within_its_self_gap(case):
    sys_, x0, dt = case
    try:
        report = gl.oracle_compare(sys_, x0, dt)
    except gl.NumericError as exc:
        # a refusal, and only where P can grow past the precision of a double
        assert "self-gap" in str(exc) or "not positive semidefinite" in str(exc)
        assert sys_.problem.beta0 == 0.0 or sys_.problem.horizon > 1.0
        return
    assert 0.0 <= report.oracle_self_gap <= 1e-8
    assert report.cost_rel_gap <= SELF_GAP_FACTOR * report.oracle_self_gap + ROUNDING


def test_the_exp_check_sees_what_the_table_check_misses():
    # beta0 = 0, alpha0*T = 11.1, n = 20, K = 280: the oracle's value is off
    # by 4.7e-8.  The check that steps by the loop's own E^m agrees with it
    # to 3.9e-9 and alone would let it through; only the one whose chunks
    # step by exp(H m h) sees the error (1.8e-8) and has the oracle refuse
    sys_, x0, dt = oracle_problem(3, 20, 481548267)
    p = sys_.problem
    assert p.beta0 == 0.0 and p.horizon == 10.0
    grid = np.linspace(0.0, p.horizon, round(p.horizon / dt) + 1)
    _, p_end, _, checks = riccati_module._oracle_loop(
        sys_.a_mat, sys_.b_mat, sys_.q_mat, sys_.p0_mat, x0, grid, [0])
    j_orc = x0 @ p_end @ x0 / sys_.n
    j_dec = gl.evaluate_cost(gl.simulate(sys_, gl.feedback_controller(p), x0, p.horizon, dt),
                             sys_).total
    gap = abs(j_dec - j_orc) / j_orc
    loop, own = (abs(x0 @ c @ x0 / sys_.n - j_orc) / j_orc for c in checks)
    assert gap > 1e-8 and loop <= 1e-8 < own
    with pytest.raises(gl.NumericError, match="self-gap above 1e-08"):
        gl.oracle_compare(sys_, x0, dt)
