import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
from graphon_lqr import lqr, riccati
from graphon_lqr.graphon import cell_index, midpoint_grid
from graphon_lqr.lqr import (FeedbackLaw, ratio_prediction, reconstruct_P,
                             synthesize_gains, truncate_problem)
from graphon_lqr.poly import apply_poly_matrix

from conftest import admissible_poly, input_poly, make_rank_kernel, sinusoidal_problem


class TestProblemValidation:
    def test_negative_cost_poly_rejected(self):
        g = gl.uniform_graphon()
        with pytest.raises(ValueError, match="poly_q"):
            gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([-1.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)

    def test_negative_on_spectrum_rejected(self):
        # q(s) = 1 - 2s is negative at the uniform kernel's eigenvalue 1
        g = gl.uniform_graphon()
        with pytest.raises(ValueError, match="poly_q"):
            gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, -2.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)

    @pytest.mark.parametrize("alpha0", [np.nan, np.inf, -np.inf])
    def test_rejection_names_its_cause(self, alpha0):
        with pytest.raises(ValueError) as info:
            gl.LqrProblem(alpha0, [1.0], [1.0], [1.0], gl.uniform_graphon(), 1.0)
        assert type(info.value) is ValueError
        assert str(info.value) == f"alpha0 must be finite, got {alpha0}"

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), -1.0)


class TestProjectState:
    """`FiniteRankGraphon.project`: eigendirection coordinates and residual."""

    def test_eigenfunction_projects_cleanly(self, vii_problem):
        g = vii_problem.graphon
        n = 32
        f1 = g.pairs[0].fun(midpoint_grid(n))
        coords, residual = g.project(f1)
        np.testing.assert_allclose(coords, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(residual, np.zeros(n), atol=1e-12)

    def test_orthogonal_state_is_pure_residual(self, vii_problem):
        g = vii_problem.graphon
        n = 32
        x = np.ones(n) * 3.0  # constant, orthogonal to sin and cos
        coords, residual = g.project(x)
        np.testing.assert_allclose(coords, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(residual, x, atol=1e-12)

    def test_function_state(self, vii_problem):
        g = vii_problem.graphon
        x = lambda t: np.sqrt(2.0) * np.sin(2 * np.pi * np.asarray(t, float)) + 3.0
        coords, residual = g.project(x)
        np.testing.assert_allclose(coords, [1.0, 0.0], atol=1e-9)
        pts = np.linspace(0, 1, 13)
        np.testing.assert_allclose(residual(pts), np.full(13, 3.0), atol=1e-9)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(12)
        g, _ = make_rank_kernel(rng, 12, 3)
        x = rng.standard_normal(12)
        coords, residual = g.project(x)
        f = g.eigfun_values(midpoint_grid(12))
        np.testing.assert_allclose(residual + f.T @ coords, x, atol=1e-12)
        np.testing.assert_allclose(f @ residual / 12, np.zeros(3), atol=1e-12)


class TestEigensystemParams:
    """Row ``idx + 1`` of ``mode_params``: the scalar problem of eigendirection idx."""

    def test_showcase_parameters(self, vii_problem):
        # drift 2 + 1/2, input 1 + (1/2)/2, weights (1 - 1/2)^2
        for idx in (0, 1):
            assert tuple(vii_problem.mode_params[idx + 1]) == pytest.approx(
                (2.5, 1.25, 0.25, 0.25), abs=1e-15)

    def test_uniform_kernel_substitution(self):
        p = gl.LqrProblem(0.7, gl.CoeffPoly([1.4]), gl.CoeffPoly([0.9]),
                          gl.CoeffPoly([0.2]), gl.uniform_graphon(), 1.0)
        assert tuple(p.mode_params[1]) == pytest.approx((1.7, 1.4, 0.9, 0.2))

    def test_tiny_eigenvalue_approaches_auxiliary(self):
        pair = gl.EigenPair(1e-12, lambda x: np.ones_like(np.asarray(x, float)))
        g = gl.FiniteRankGraphon([pair])
        p = gl.LqrProblem(0.7, gl.CoeffPoly([1.4, 0.3]), gl.CoeffPoly([0.9, 0.1]),
                          gl.CoeffPoly([0.2, -0.1]), g, 1.0)
        drift, gain, q, z = p.mode_params[1]
        assert (drift, gain, q, z) == pytest.approx((p.alpha0, p.beta0, p.q0, p.z0),
                                                    abs=1e-11)

    def test_out_of_range(self, vii_problem):
        with pytest.raises(IndexError):
            vii_problem.mode_params[2 + 1]

    def test_rows_of_mode_params(self):
        rng = np.random.default_rng(14)
        g, _ = make_rank_kernel(rng, 9, 4)
        p = gl.LqrProblem(0.3, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 3),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        assert p.mode_params.shape == (5, 4) and not p.mode_params.flags.writeable
        assert tuple(p.mode_params[0]) == (p.alpha0, p.beta0, p.q0, p.z0)
        for l, lam in enumerate(g.lambdas):
            assert tuple(p.mode_params[l + 1]) == (
                p.alpha0 + lam, p.poly_b(lam), max(p.poly_q(lam), 0.0),
                max(p.poly_p0(lam), 0.0))


class TestRoundingBelowZero:
    """Weights within the rounding slack below zero act as exact zeros."""

    @staticmethod
    def problem(field, coeffs):
        polys = {"poly_q": [1.0], "poly_p0": [1.0], field: coeffs}
        return gl.LqrProblem(1.0, gl.CoeffPoly([1.0]), gl.CoeffPoly(polys["poly_q"]),
                             gl.CoeffPoly(polys["poly_p0"]), gl.uniform_graphon(), 1.0)

    @pytest.mark.parametrize("field", ["poly_q", "poly_p0"])
    def test_gains_equal_those_of_zero(self, field):
        # 0.3 s - 0.1 s^2 - 0.2 s^3 is 0 at s = 0 and rounds to -5.6e-17 at
        # the uniform kernel's eigenvalue 1, where its terms sum to 0.6
        tiny = self.problem(field, [0.0, 0.3, -0.1, -0.2])
        zero = self.problem(field, [0.0])
        assert getattr(tiny, field)(1.0) < 0.0
        np.testing.assert_array_equal(tiny.mode_params, zero.mode_params)
        np.testing.assert_array_equal(synthesize_gains(tiny, 1e-2)[1],
                                      synthesize_gains(zero, 1e-2)[1])

    @pytest.mark.parametrize("field", ["poly_q", "poly_p0"])
    def test_negative_constant_rejected_at_any_scale(self, field):
        # a constant has no rounding to forgive: -1e-13 is as negative as -1
        with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
            self.problem(field, [-1e-13])


class TestSynthesizeGains:
    def test_showcase_curves(self, vii_problem, monkeypatch):
        # the samples are the problem's one Riccati setup evaluated on the
        # grid: synthesis sets up no other solution
        def refuse(*args):
            raise AssertionError("a second Riccati setup")

        for module in (riccati, lqr):
            monkeypatch.setattr(module, "_ExplicitRiccati", refuse)
        grid, gains = synthesize_gains(vii_problem, 1e-3)
        np.testing.assert_array_equal(grid, gl.uniform_grid(1.0, 1e-3))
        assert gains.shape == (1001, 3)  # columns L, M_1, M_2
        assert not gains.flags.writeable
        np.testing.assert_array_equal(gains, vii_problem.riccati(grid))
        # degenerate eigenvalue: equal rows, equal columns
        np.testing.assert_array_equal(gains[:, 1], gains[:, 2])
        np.testing.assert_array_equal(gains[0], [1.0, 0.25, 0.25])
        # the auxiliary curve solves dL = 4L - L^2 + 1 (finite differences)
        vals = gains[:, 0]
        mid_rate = (vals[2:] - vals[:-2]) / (grid[2] - grid[0])
        expect = 4.0 * vals[1:-1] - vals[1:-1] ** 2 + 1.0
        np.testing.assert_allclose(mid_rate, expect, atol=1e-4)

    def test_no_time_stepping(self, vii_problem, monkeypatch):
        # synthesis evaluates the explicit solution; it never calls the integrator
        def refuse(*args):
            raise AssertionError("riccati_path called")

        monkeypatch.setattr(riccati, "riccati_path", refuse)
        assert synthesize_gains(vii_problem, 1e-3)[1].shape == (1001, 3)
        p = sinusoidal_problem(poly_b=(1.0,))
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 20), p)
        rows = gl.truncation_study(sys_, gl.initial_state(20, 5), [0, 1, 2])
        assert np.isfinite(rows[0].predicted_ratio).all()

    def test_zero_cost_gives_zero_gains(self):
        p = gl.LqrProblem(1.0, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.sinusoidal_graphon(), 1.0)
        assert np.all(synthesize_gains(p, 1e-3)[1] == 0.0)

    def test_mean_field_case_two_curves(self):
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), 1.0)
        # one eigendirection plus the auxiliary curve
        assert synthesize_gains(p, 1e-3)[1].shape[1] == 2


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_law_gains_are_the_synthesized_samples(d, no_beta0, seed):
    # the law evaluates its gains at T - t by the samples' formula: where
    # T - t_k is the node t_(K-k) the two agree bit for bit; elsewhere the
    # times differ by an ulp, which moves a gain by that shift times its
    # rate b*(2 alpha Pi - b^2 Pi^2 + q) plus a few ulps of the formula's
    # rounding
    rng = np.random.default_rng(seed)
    g, _ = make_rank_kernel(rng, d + int(rng.integers(0, 4)), d)
    poly_b = input_poly(rng, int(rng.integers(0, 3)))
    if no_beta0:
        poly_b = gl.CoeffPoly([0.0, *poly_b.coeffs[1:]])
    p = gl.LqrProblem(float(rng.uniform(-2.0, 3.0)), poly_b,
                      admissible_poly(rng, g.lambdas, 2),
                      admissible_poly(rng, g.lambdas, 2), g, float(rng.uniform(0.3, 3.0)))
    grid, gains = synthesize_gains(p, p.horizon / int(rng.integers(10, 400)))
    pi = gains[::-1]
    alpha, beta, q, _ = p.mode_params.T
    expect = pi * beta
    shift = np.abs((p.horizon - grid) - grid[::-1])[:, None]
    slope = np.abs(beta * (2.0 * alpha * pi - beta * beta * pi * pi + q))
    got = FeedbackLaw(p).gains_at(grid)
    same = shift[:, 0] == 0.0
    np.testing.assert_array_equal(got[same], expect[same])
    assert np.all(np.abs(got - expect) <= 1e-15 * np.abs(expect).max() + 2.0 * shift * slope)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.sampled_from([1e-3, 1.0, 1e3]),
       st.integers(0, 2 ** 32 - 1))
def test_gains_peak_at_the_ends_of_a_run(d, no_beta0, z0_scale, seed):
    # each gain solves an autonomous scalar Riccati equation, so it is
    # monotone in time and its largest magnitude on a grid is at one of the
    # grid's ends, the only times a closed-form run reads for its blow-up
    # bound and quadrature panels; terminal weights scaled by 1e-3 and 1e3
    # start most solutions below and above their roots
    rng = np.random.default_rng(seed)
    g, _ = make_rank_kernel(rng, d + int(rng.integers(0, 4)), d)
    poly_b = input_poly(rng, int(rng.integers(0, 3)))
    if no_beta0:
        poly_b = gl.CoeffPoly([0.0, *poly_b.coeffs[1:]])
    poly_p0 = gl.CoeffPoly(z0_scale * np.array(admissible_poly(rng, g.lambdas, 2).coeffs))
    p = gl.LqrProblem(float(rng.uniform(-2.0, 3.0)), poly_b,
                      admissible_poly(rng, g.lambdas, 2), poly_p0, g,
                      float(rng.uniform(0.3, 3.0)))
    grid = gl.uniform_grid(p.horizon, p.horizon / int(rng.integers(10, 400)))
    eps = np.finfo(float).eps
    for own in (p, *(truncate_problem(p, level) for level in range(d))):
        law = FeedbackLaw(own)
        peak = np.abs(law.gains_at(grid)).max(axis=0)
        ends = np.abs(law.gains_at(grid[[0, -1]])).max(axis=0)
        assert np.all(peak <= ends * (1.0 + 4.0 * eps))


class TestControlLaws:
    """The optimal law on vector and function states."""

    @pytest.fixture
    def law(self, vii_problem):
        return FeedbackLaw(vii_problem)

    def test_zero_state_zero_control(self, law):
        np.testing.assert_array_equal(law(0.3, np.zeros(40)), np.zeros(40))

    def test_pure_residual_uses_auxiliary_gain(self, law, vii_problem):
        n, t = 40, 0.4
        x = np.full(n, 2.0)  # orthogonal to both eigendirections
        lt = gl.riccati_explicit(*vii_problem.mode_params[0], [vii_problem.horizon - t])[0]
        np.testing.assert_allclose(law(t, x), -vii_problem.beta0 * lt * x, atol=1e-12)

    def test_eigenstate_gets_eigen_gain(self, law, vii_problem):
        gamma = midpoint_grid(40)
        x = np.sqrt(2.0) * np.sin(2 * np.pi * gamma)
        m_end = gl.riccati_explicit(*vii_problem.mode_params[1], [vii_problem.horizon])[0]
        np.testing.assert_allclose(law(0.0, x), -1.25 * m_end * x, atol=1e-12)

    def test_centralized_localized_agree(self, law):
        # a function state read at each node equals the vector state's law
        # at that node's cell; the trigonometric state projects exactly
        # under both quadratures
        x = lambda g: (0.4 + np.cos(2 * np.pi * g) - 0.7 * np.sin(2 * np.pi * g)
                       + 0.3 * np.sin(6 * np.pi * np.asarray(g, float)))
        n = 40
        gamma = midpoint_grid(n)
        u_vec = law(0.25, x(gamma))
        u_fun = law(0.25, x)
        u_nodes = np.array([u_fun(g) for g in gamma])
        np.testing.assert_allclose(u_nodes, u_vec[cell_index(gamma, n)], atol=1e-12)
        np.testing.assert_allclose(u_fun(gamma), u_vec, atol=1e-12)

    def test_function_state_law(self, law, vii_problem):
        x = lambda t: np.sqrt(2.0) * np.sin(2 * np.pi * np.asarray(t, float))
        u = law(0.0, x)
        m_end = gl.riccati_explicit(*vii_problem.mode_params[1], [vii_problem.horizon])[0]
        pts = np.linspace(0, 1, 9)
        np.testing.assert_allclose(u(pts), -1.25 * m_end * x(pts), atol=1e-9)
        assert u(0.25) == pytest.approx(-1.25 * m_end * np.sqrt(2.0), abs=1e-9)

    def test_matches_reconstructed_feedback_operator(self, law, vii_problem):
        # the law equals -B P(T-t) x with P rebuilt from the problem's gains
        n, t = 24, 0.35
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x = np.random.default_rng(8).standard_normal(n)
        p_op = reconstruct_P(vii_problem, vii_problem.horizon - t, n)
        np.testing.assert_allclose(law(t, x), -sys_.b_mat @ p_op @ x, atol=1e-10)

    def test_time_outside_horizon_rejected(self, law):
        for t in (1.5, -0.1):
            with pytest.raises(ValueError, match="horizon"):
                law(t, np.zeros(40))
        # the horizon's slack is relative: 50 T is outside a horizon of 1e-14
        short = FeedbackLaw(sinusoidal_problem(horizon=1e-14))
        with pytest.raises(ValueError, match="horizon"):
            short(5e-13, np.zeros(40))

    def test_gains_at_names_first_time_outside_horizon(self, law):
        with pytest.raises(ValueError, match="time 1.25 outside"):
            law.gains_at(np.array([0.5, 1.25, 1.5]))

    def test_nan_time_rejected(self, law):
        # NaN fails every comparison, so the horizon check tests the complement
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: law.gains_at(np.nan),
                         lambda: law.gains_at(np.array([0.5, np.nan])),
                         lambda: law(np.nan, np.zeros(40))):
                with pytest.raises(ValueError, match="time nan outside"):
                    call()

    def test_gamma_outside_domain_rejected(self):
        # a node reads its input at cell_index(gamma, n), defined on [0, 1]
        assert cell_index(1.0, 40) == 39
        with pytest.raises(ValueError):
            cell_index(1.2, 40)


class TestReconstructP:
    def test_rank_zero_is_scaled_identity(self):
        g = gl.sinusoidal_graphon().truncate(0)
        p = gl.LqrProblem(1.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([0.5]), g, 1.0)
        mat = reconstruct_P(p, 0.3, 5)
        np.testing.assert_array_equal(
            mat, gl.riccati_explicit(*p.mode_params[0], [0.3])[0] * np.eye(5))

    def test_initial_value_matches_terminal_weight_matrix(self):
        # on a full-rank coupling the reconstruction at time zero equals
        # poly_p0(entries/n) exactly
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (4, 4))
        step = gl.StepGraphon(0.5 * (a + a.T))
        kernel = step.spectral_decompose()
        assert kernel.rank == 4
        p = gl.LqrProblem(0.3, gl.CoeffPoly([1.0]),
                          admissible_poly(rng, kernel.lambdas, 2),
                          admissible_poly(rng, kernel.lambdas, 3),
                          kernel, 1.0)
        expect = apply_poly_matrix(p.poly_p0, step.entries / 4)
        np.testing.assert_allclose(reconstruct_P(p, 0.0, 4), expect,
                                   atol=1e-10)


class TestDecouplingIdentities:
    def test_quadratic_form_splits(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            rank = int(rng.integers(1, min(4, n)))
            g, entries = make_rank_kernel(rng, n, rank)
            poly_q = admissible_poly(rng, g.lambdas, int(rng.integers(0, 4)))
            x = rng.standard_normal(n)
            q_mat = apply_poly_matrix(poly_q, entries / n)
            direct = x @ q_mat @ x / n
            coords, residual = g.project(x)
            split = (poly_q.coeffs[0] * residual @ residual / n
                     + np.atleast_1d(poly_q(g.lambdas)) @ coords ** 2)
            assert abs(direct - split) <= 1e-8

    def test_cross_terms_vanish(self):
        rng = np.random.default_rng(22)
        g, entries = make_rank_kernel(rng, 10, 3)
        x = rng.standard_normal(10)
        coords, residual = g.project(x)
        f = g.eigfun_values(midpoint_grid(10))
        eig_part = f.T @ coords
        scaled = entries / 10
        power = np.eye(10)
        for _ in range(5):  # k = 0..4
            assert abs(residual @ power @ eig_part / 10) <= 1e-10
            power = power @ scaled


class TestClosedLoopStructure:
    def test_eigencoordinates_follow_scalar_flow(self, vii_problem):
        # under the optimal law each coordinate obeys
        # d coord/dt = (alpha0 + lam - b_l^2 M_l(T-t)) coord; integrate that
        # flow by the trapezoid rule on the gain grid and compare at its nodes
        p, n, dt = vii_problem, 40, 1e-3
        grid, gains = synthesize_gains(p, dt)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 5)
        traj = gl.simulate(sys_, FeedbackLaw(p), x0, p.horizon, dt)
        np.testing.assert_array_equal(traj.grid, grid)
        b_eig = np.atleast_1d(p.poly_b(p.graphon.lambdas))
        # M_l(T - t_k) is the sample at the reversed node K - k
        rates = (p.alpha0 + p.graphon.lambdas[:, None]
                 - b_eig[:, None] ** 2 * gains[::-1, 1:].T)
        exponent = np.zeros_like(rates)
        exponent[:, 1:] = np.cumsum(
            0.5 * np.diff(grid) * (rates[:, 1:] + rates[:, :-1]), axis=1)
        coords0 = p.graphon.project(x0)[0]
        f = p.graphon.eigfun_values(midpoint_grid(n))
        for k in range(0, grid.size, 100):
            np.testing.assert_allclose(f @ traj.states[k] / n,
                                       coords0 * np.exp(exponent[:, k]), atol=1e-5)


    def test_horizon_mismatch_rejected(self, vii_problem):
        # the law of the same data over another horizon is not the system's
        # law: the closed form rejects it, and over the system's horizon it
        # runs the generic loop and costs more than the optimum
        p, n, dt = vii_problem, 12, 1e-2
        other = gl.LqrProblem(p.alpha0, p.poly_b, p.poly_q, p.poly_p0, p.graphon, 2.0)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 16)
        traj = gl.simulate(sys_, FeedbackLaw(other), x0, p.horizon, dt)
        assert isinstance(traj, gl.Trajectory)
        optimal = gl.simulate(sys_, FeedbackLaw(p), x0, p.horizon, dt)
        assert gl.evaluate_cost(traj, sys_).total > gl.evaluate_cost(optimal, sys_).total

class TestTruncatedController:
    """The truncated law: the law of a truncated problem, whose rows lead the problem's."""

    def test_full_level_equals_optimal(self, vii_problem):
        optimal = FeedbackLaw(vii_problem)
        trunc = FeedbackLaw(truncate_problem(vii_problem, vii_problem.d))
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        np.testing.assert_array_equal(optimal(0.2, x), trunc(0.2, x))

    def test_level_zero_is_auxiliary_law(self, vii_problem):
        trunc = FeedbackLaw(truncate_problem(vii_problem, 0))
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        lt = gl.riccati_explicit(*vii_problem.mode_params[0], [vii_problem.horizon - 0.3])[0]
        expect = -vii_problem.beta0 * lt * x
        np.testing.assert_allclose(trunc(0.3, x), expect, atol=1e-12)

    def test_level_out_of_range(self, vii_problem):
        for level in (3, -1):
            with pytest.raises(ValueError, match="truncation level"):
                truncate_problem(vii_problem, level)


class TestRatioPrediction:
    def test_requires_constant_input_poly(self, vii_problem):
        with pytest.raises(ValueError, match="constant"):
            ratio_prediction(vii_problem)

    def test_vanishing_eigenvalue_gives_unit_ratio(self):
        pair = gl.EigenPair(1e-12, lambda x: np.ones_like(np.asarray(x, float)))
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, -0.5]),
                          gl.CoeffPoly([0.3]), gl.FiniteRankGraphon([pair]), 1.0)
        assert ratio_prediction(p)[0] == pytest.approx(1.0, abs=1e-9)

    def test_no_input_gives_unit_ratio_under_fast_drift(self):
        # beta0 = 0 couples no gain into any direction; exp(-2 alpha0 T)
        # underflows here, and the ratio must still be exactly 1
        for alpha0 in (0.5, 400.0):
            p = gl.LqrProblem(alpha0, gl.CoeffPoly([0.0]), gl.CoeffPoly([1.0]),
                              gl.CoeffPoly([1.0]), gl.sinusoidal_graphon(), 1.0)
            assert ratio_prediction(p)[0] == ratio_prediction(p)[1] == 1.0

    def test_overflowing_ratio_raises(self):
        # drift 367 along the constant eigenfunction: the dropped direction's
        # ratio exceeds the largest double; a study that drops no direction
        # predicts none and still answers
        pair = gl.EigenPair(367.0, lambda x: np.ones_like(np.asarray(x, float)))
        p = gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.FiniteRankGraphon([pair]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(gl.BlowUpError, match="eigendirection 1 is not finite"):
                ratio_prediction(p)
            sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 4), p)
            row, = gl.truncation_study(sys_, gl.initial_state(4, 1), [1])
        assert np.isfinite(row.j_optimal) and np.isnan(row.predicted_ratio).all()

    def test_matches_direct_gain_integral(self):
        p = sinusoidal_problem(poly_b=(1.0,))
        dt = 1e-4
        pred = ratio_prediction(p)[1]
        grid, m = gl.riccati_path(2.5, 1.0, 0.25, 0.25, 1.0, dt)
        _, mt = gl.riccati_path(2.0, 1.0, 1.0, 1.0, 1.0, dt)
        expect = np.exp(-np.trapezoid(mt - m, grid))
        assert pred == pytest.approx(expect, abs=1e-8)

    def test_measured_ratio_converges_at_fourth_order(self):
        # the prediction reads no grid; the ratio that the RK4 generic loop
        # measures approaches it at fourth order (the laws read exact gains at
        # the stage times), and a truncation study measures it from the
        # closed form
        p = sinusoidal_problem(horizon=0.5, poly_b=(1.0,))
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 40), p)
        x0 = gl.initial_state(40, 97)
        f = p.graphon.cells(40)
        row = gl.truncation_study(sys_, x0, [1])[0]
        assert row.predicted_ratio[1] == ratio_prediction(p)[1]
        assert row.measured_ratio[1] == pytest.approx(row.predicted_ratio[1],
                                                      rel=1e-12, abs=0.0)
        gaps = []
        for dt in (2e-2, 1e-2):
            ends = [gl.simulate(sys_, lambda t, x, law=law: law(t, x), x0, p.horizon,
                                dt).states[-1] @ f[1]
                    for law in (FeedbackLaw(truncate_problem(p, 1)), FeedbackLaw(p))]
            gaps.append(abs(ends[0] / ends[1] - row.predicted_ratio[1]))
        assert 2 ** 3.5 <= gaps[0] / gaps[1] <= 2 ** 4.5


class TestFirstOrderOptimality:
    def test_perturbations_never_beat_synthesized_control(self):
        rng = np.random.default_rng(30)
        g, entries = make_rank_kernel(rng, 5, 2)
        p = gl.LqrProblem(0.4, input_poly(rng, 1), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        dt = 1e-3
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(5, 31)
        base = FeedbackLaw(p)
        j_opt = gl.evaluate_cost(gl.simulate(sys_, base, x0, p.horizon, dt), sys_).total
        for _ in range(5):
            w = rng.standard_normal(5)
            freq = rng.uniform(0.5, 3.0)
            pert = lambda t, x: base(t, x) + 1e-3 * np.cos(freq * t) * w
            j = gl.evaluate_cost(gl.simulate(sys_, pert, x0, p.horizon, dt), sys_).total
            assert j >= j_opt - 1e-8


class TestKernelBasis:
    """The kernel's cell table, projection and span serve every consumer."""

    def test_each_eigenfunction_read_on_the_cells_once(self):
        n, calls = 24, []

        def counted(k, fun):
            def f(x):
                if np.shape(x) == (n,) and np.array_equal(x, midpoint_grid(n)):
                    calls.append(k)
                return fun(x)
            return f

        base = gl.sinusoidal_graphon()
        g = gl.FiniteRankGraphon([gl.EigenPair(p.lam, counted(k, p.fun))
                                  for k, p in enumerate(base.pairs)])
        p = gl.LqrProblem(2.0, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)
        sys_ = gl.build_step_system(gl.sample_step_entries(g, n), p)
        law = FeedbackLaw(p)
        x = gl.initial_state(n, 4)
        for t in (0.0, 0.5, 1.0):
            law(t, x)
            reconstruct_P(p, t, n)
        g.project(x)
        assert sorted(calls) == [0, 1]
        assert sys_.f_cells is g.cells(n)

    def test_cell_table_is_read_only(self):
        g = gl.sinusoidal_graphon()
        f = g.cells(8)
        assert g.cells(8) is f and f.shape == (2, 8)
        with pytest.raises(ValueError):
            f[0, 0] = 1.0

    def test_empty_partition_rejected(self, vii_problem):
        # an empty cell vector would be scaled by 1/0
        g = vii_problem.graphon
        law = FeedbackLaw(vii_problem)
        for call in (lambda: g.project(np.zeros(0)), lambda: g.apply(np.zeros(0)),
                     lambda: law(0.5, np.zeros(0)), lambda: gl.sample_step_entries(g, 0),
                     lambda: reconstruct_P(vii_problem, 0.5, 0)):
            with pytest.raises(ValueError, match="partition size must be >= 1"):
                call()

    @pytest.mark.parametrize("kind", ["sinusoidal", "step"])
    def test_function_state_agrees_with_cell_vectors(self, kind):
        # on a partition that holds the state exactly, a function state's
        # coordinates, residual, kernel image and feedback read at the cell
        # midpoints are those of its vector of cell values
        if kind == "sinusoidal":
            g, n = gl.sinusoidal_graphon(), 2048
            x = lambda s: (0.4 + np.cos(2 * np.pi * s) - 0.7 * np.sin(2 * np.pi * s)
                           + 0.3 * np.sin(6 * np.pi * np.asarray(s, float)))
        else:
            rng = np.random.default_rng(17)
            g, _ = make_rank_kernel(rng, 16, 3)
            n, x = 16, gl.StepFunction(rng.standard_normal(16))
        mids = midpoint_grid(n)
        (fun_coords, fun_residual), (coords, residual) = g.project(x), g.project(x(mids))
        np.testing.assert_allclose(fun_coords, coords, atol=1e-9)
        np.testing.assert_allclose(fun_residual(mids), residual, atol=1e-9)
        assert isinstance(fun_residual(0.3), float)
        np.testing.assert_allclose(g.apply(x)(mids), g.apply(x(mids)), atol=1e-9)
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)
        law = FeedbackLaw(p)
        np.testing.assert_allclose(law(0.25, x)(mids), law(0.25, x(mids)), atol=1e-9)
