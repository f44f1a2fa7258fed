import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr import integrate, lqr, riccati
from graphon_lqr.graphon import cell_index, midpoint_grid
from graphon_lqr.lqr import (eigensystem_params, feedback_controller, project_state,
                             ratio_prediction, reconstruct_P, synthesize_gains,
                             truncate_problem)
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

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), -1.0)


class TestProjectState:
    def test_eigenfunction_projects_cleanly(self, vii_problem):
        g = vii_problem.graphon
        n = 32
        f1 = g.pairs[0].fun(midpoint_grid(n))
        ds = project_state(f1, g)
        np.testing.assert_allclose(ds.eigen_coords, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ds.auxiliary, np.zeros(n), atol=1e-12)

    def test_orthogonal_state_is_pure_residual(self, vii_problem):
        g = vii_problem.graphon
        n = 32
        x = np.ones(n) * 3.0  # constant, orthogonal to sin and cos
        ds = project_state(x, g)
        np.testing.assert_allclose(ds.eigen_coords, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(ds.auxiliary, x, atol=1e-12)

    def test_function_state(self, vii_problem):
        g = vii_problem.graphon
        x = lambda t: np.sqrt(2.0) * np.sin(2 * np.pi * np.asarray(t, float)) + 3.0
        ds = project_state(x, g)
        np.testing.assert_allclose(ds.eigen_coords, [1.0, 0.0], atol=1e-9)
        pts = np.linspace(0, 1, 13)
        np.testing.assert_allclose(ds.auxiliary(pts), np.full(13, 3.0), atol=1e-9)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(12)
        g, _ = make_rank_kernel(rng, 12, 3)
        x = rng.standard_normal(12)
        ds = project_state(x, g)
        f = g.eigfun_values(midpoint_grid(12))
        np.testing.assert_allclose(ds.auxiliary + f.T @ ds.eigen_coords, x,
                                   atol=1e-12)
        np.testing.assert_allclose(f @ ds.auxiliary / 12, np.zeros(3), atol=1e-12)


class TestEigensystemParams:
    def test_showcase_parameters(self, vii_problem):
        # drift 2 + 1/2, input 1 + (1/2)/2, weights (1 - 1/2)^2
        for idx in (0, 1):
            assert eigensystem_params(vii_problem, idx) == pytest.approx(
                (2.5, 1.25, 0.25, 0.25), abs=1e-15)

    def test_uniform_kernel_substitution(self):
        p = gl.LqrProblem(0.7, gl.CoeffPoly([1.4]), gl.CoeffPoly([0.9]),
                          gl.CoeffPoly([0.2]), gl.uniform_graphon(), 1.0)
        assert eigensystem_params(p, 0) == pytest.approx((1.7, 1.4, 0.9, 0.2))

    def test_tiny_eigenvalue_approaches_auxiliary(self):
        pair = gl.EigenPair(1e-12, lambda x: np.ones_like(np.asarray(x, float)))
        g = gl.FiniteRankGraphon([pair])
        p = gl.LqrProblem(0.7, gl.CoeffPoly([1.4, 0.3]), gl.CoeffPoly([0.9, 0.1]),
                          gl.CoeffPoly([0.2, -0.1]), g, 1.0)
        drift, gain, q, z = eigensystem_params(p, 0)
        assert (drift, gain, q, z) == pytest.approx((p.alpha0, p.beta0, p.q0, p.z0),
                                                    abs=1e-11)

    def test_out_of_range(self, vii_problem):
        with pytest.raises(IndexError):
            eigensystem_params(vii_problem, 2)

    def test_rows_of_mode_params(self):
        rng = np.random.default_rng(14)
        g, _ = make_rank_kernel(rng, 9, 4)
        p = gl.LqrProblem(0.3, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 3),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        assert p.mode_params.shape == (5, 4) and not p.mode_params.flags.writeable
        assert tuple(p.mode_params[0]) == (p.alpha0, p.beta0, p.q0, p.z0)
        for l in range(p.d):
            assert tuple(p.mode_params[l + 1]) == eigensystem_params(p, l)


class TestRoundingBelowZero:
    """Weights within the rounding slack below zero act as exact zeros."""

    @pytest.mark.parametrize("field", ["poly_q", "poly_p0"])
    def test_gains_equal_those_of_zero(self, field):
        def problem(weight):
            polys = {"poly_q": [1.0], "poly_p0": [1.0], field: [weight]}
            return gl.LqrProblem(1.0, gl.CoeffPoly([1.0]), gl.CoeffPoly(polys["poly_q"]),
                                 gl.CoeffPoly(polys["poly_p0"]), gl.sinusoidal_graphon(),
                                 1.0)

        tiny, zero = problem(-1e-13), problem(0.0)
        np.testing.assert_array_equal(tiny.mode_params, zero.mode_params)
        np.testing.assert_array_equal(synthesize_gains(tiny, 1e-2).values,
                                      synthesize_gains(zero, 1e-2).values)


class TestSynthesizeGains:
    def test_showcase_curves(self, vii_problem, monkeypatch):
        solved = []

        def recording_solver(alpha, *rest):
            solved.append(np.size(alpha))
            return riccati_explicit(alpha, *rest)

        riccati_explicit = lqr.riccati_explicit
        monkeypatch.setattr(lqr, "riccati_explicit", recording_solver)
        gains = synthesize_gains(vii_problem, 1e-3)
        assert gains.values.shape == (1001, 3)  # columns L, M_1, M_2
        # degenerate eigenvalue: one solve shared by both directions
        assert solved == [2]
        np.testing.assert_array_equal(gains.values[:, 1], gains.values[:, 2])
        np.testing.assert_array_equal(gains.values[0], [1.0, 0.25, 0.25])
        # the auxiliary curve solves dL = 4L - L^2 + 1 (finite differences)
        grid, vals = gains.grid, gains.values[:, 0]
        mid_rate = (vals[2:] - vals[:-2]) / (grid[2] - grid[0])
        expect = 4.0 * vals[1:-1] - vals[1:-1] ** 2 + 1.0
        np.testing.assert_allclose(mid_rate, expect, atol=1e-4)

    def test_no_time_stepping(self, vii_problem, monkeypatch):
        # synthesis evaluates the explicit solution; it never calls the integrator
        def refuse(*args):
            raise AssertionError("rk4_path called")

        for module in (integrate, riccati):
            monkeypatch.setattr(module, "rk4_path", refuse)
        gains = synthesize_gains(vii_problem, 1e-3)
        assert gains.values.shape == (1001, 3)
        p = sinusoidal_problem(poly_b=(1.0,))
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 20), p)
        rows = gl.truncation_study(sys_, gl.initial_state(20, 5), [0, 1, 2], 1e-3)
        assert np.isfinite(rows[0].predicted_ratio).all()

    def test_zero_cost_gives_zero_gains(self):
        p = gl.LqrProblem(1.0, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.sinusoidal_graphon(), 1.0)
        gains = synthesize_gains(p, 1e-3)
        assert np.all(gains.values == 0.0)

    def test_mean_field_case_two_curves(self):
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), 1.0)
        gains = synthesize_gains(p, 1e-3)
        assert gains.values.shape[1] == 2  # one eigendirection plus the auxiliary curve


class TestControlLaws:
    """The optimal law on vector and function states."""

    @pytest.fixture
    def law(self, vii_problem):
        return feedback_controller(vii_problem, synthesize_gains(vii_problem, 1e-3))

    def test_zero_state_zero_control(self, law):
        np.testing.assert_array_equal(law(0.3, np.zeros(40)), np.zeros(40))

    def test_pure_residual_uses_auxiliary_gain(self, law, vii_problem):
        n, t = 40, 0.4
        x = np.full(n, 2.0)  # orthogonal to both eigendirections
        lt = law.gains(vii_problem.horizon - t)[0]
        np.testing.assert_allclose(law(t, x), -vii_problem.beta0 * lt * x, atol=1e-12)

    def test_eigenstate_gets_eigen_gain(self, law, vii_problem):
        gamma = midpoint_grid(40)
        x = np.sqrt(2.0) * np.sin(2 * np.pi * gamma)
        m_end = law.gains(vii_problem.horizon)[1]
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
        m_end = law.gains(vii_problem.horizon)[1]
        pts = np.linspace(0, 1, 9)
        np.testing.assert_allclose(u(pts), -1.25 * m_end * x(pts), atol=1e-9)
        assert u(0.25) == pytest.approx(-1.25 * m_end * np.sqrt(2.0), abs=1e-9)

    def test_matches_reconstructed_feedback_operator(self, law, vii_problem):
        # the law equals -B P(T-t) x with P rebuilt from the gain curves
        n, t = 24, 0.35
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x = np.random.default_rng(8).standard_normal(n)
        p_op = reconstruct_P(law.gains, vii_problem.graphon,
                             vii_problem.horizon - t, n)
        np.testing.assert_allclose(law(t, x), -sys_.b_mat @ p_op @ x, atol=1e-10)

    def test_time_outside_horizon_rejected(self, law):
        for t in (1.5, -0.1):
            with pytest.raises(ValueError, match="horizon"):
                law(t, np.zeros(40))

    def test_gains_at_names_first_time_outside_horizon(self, law):
        with pytest.raises(ValueError, match="time 1.25 outside"):
            law.gains_at(np.array([0.5, 1.25, 1.5]))

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
        gains = synthesize_gains(p, 1e-3)
        mat = reconstruct_P(gains, g, 0.3, 5)
        np.testing.assert_allclose(mat, gains(0.3)[0] * np.eye(5), atol=1e-12)

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
        gains = synthesize_gains(p, 1e-3)
        expect = apply_poly_matrix(p.poly_p0, step.entries / 4)
        np.testing.assert_allclose(reconstruct_P(gains, kernel, 0.0, 4), expect,
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
            ds = project_state(x, g)
            split = (poly_q.const * ds.auxiliary @ ds.auxiliary / n
                     + np.atleast_1d(poly_q(g.lambdas)) @ ds.eigen_coords ** 2)
            assert abs(direct - split) <= 1e-8

    def test_cross_terms_vanish(self):
        rng = np.random.default_rng(22)
        g, entries = make_rank_kernel(rng, 10, 3)
        x = rng.standard_normal(10)
        ds = project_state(x, g)
        f = g.eigfun_values(midpoint_grid(10))
        eig_part = f.T @ ds.eigen_coords
        scaled = entries / 10
        power = np.eye(10)
        for _ in range(5):  # k = 0..4
            assert abs(ds.auxiliary @ power @ eig_part / 10) <= 1e-10
            power = power @ scaled


class TestClosedLoopStructure:
    def test_eigencoordinates_follow_scalar_flow(self, vii_problem):
        # under the optimal law each coordinate obeys
        # d coord/dt = (alpha0 + lam - b_l^2 M_l(T-t)) coord; integrate that
        # flow by the trapezoid rule on the gain grid and compare
        p, n, dt = vii_problem, 40, 1e-3
        gains = synthesize_gains(p, dt)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 5)
        traj = gl.simulate(sys_, feedback_controller(p, gains), x0, p.horizon, dt)
        b_eig = np.atleast_1d(p.poly_b(p.graphon.lambdas))
        rates = (p.alpha0 + p.graphon.lambdas[:, None]
                 - b_eig[:, None] ** 2 * gains(p.horizon - gains.grid)[:, 1:].T)
        exponent = np.zeros_like(rates)
        exponent[:, 1:] = np.cumsum(
            0.5 * np.diff(gains.grid) * (rates[:, 1:] + rates[:, :-1]), axis=1)
        coords0 = project_state(x0, p.graphon).eigen_coords
        f = p.graphon.eigfun_values(midpoint_grid(n))
        for k in range(0, traj.grid.size, 100):
            predicted = coords0 * np.exp(
                [np.interp(traj.grid[k], gains.grid, e) for e in exponent])
            np.testing.assert_allclose(f @ traj.states[k] / n, predicted, atol=1e-5)

    def test_horizon_mismatch_rejected(self, vii_problem):
        other = sinusoidal_problem(horizon=2.0)
        gains = synthesize_gains(other, 1e-3)
        with pytest.raises(ValueError, match="horizon"):
            feedback_controller(vii_problem, gains)


class TestTruncatedController:
    """The truncated law: the problem's gains read by its truncation."""

    def test_full_level_equals_optimal(self, vii_problem):
        dt = 1e-3
        gains = synthesize_gains(vii_problem, dt)
        optimal = feedback_controller(vii_problem, gains)
        trunc = feedback_controller(truncate_problem(vii_problem, vii_problem.d), gains)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        np.testing.assert_array_equal(optimal(0.2, x), trunc(0.2, x))

    def test_level_zero_is_auxiliary_law(self, vii_problem):
        gains = synthesize_gains(vii_problem, 1e-3)
        trunc = feedback_controller(truncate_problem(vii_problem, 0), gains)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(40)
        expect = -vii_problem.beta0 * gains(vii_problem.horizon - 0.3)[0] * x
        np.testing.assert_allclose(trunc(0.3, x), expect, atol=1e-12)

    def test_level_out_of_range(self, vii_problem):
        for level in (3, -1):
            with pytest.raises(ValueError, match="truncation level"):
                truncate_problem(vii_problem, level)


class TestRatioPrediction:
    def test_requires_constant_input_poly(self, vii_problem):
        with pytest.raises(ValueError, match="constant"):
            ratio_prediction(vii_problem, 1, 1e-3)

    def test_vanishing_eigenvalue_gives_unit_ratio(self):
        pair = gl.EigenPair(1e-12, lambda x: np.ones_like(np.asarray(x, float)))
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, -0.5]),
                          gl.CoeffPoly([0.3]), gl.FiniteRankGraphon([pair]), 1.0)
        assert ratio_prediction(p, 0, 1e-4) == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_gain_integral(self):
        p = sinusoidal_problem(poly_b=(1.0,))
        dt = 1e-4
        pred = ratio_prediction(p, 1, dt)
        m = gl.solve_riccati_numeric(gl.ScalarRiccatiSpec(2.5, 1.0, 0.25, 0.25, 1.0, dt))
        mt = gl.solve_riccati_numeric(gl.ScalarRiccatiSpec(2.0, 1.0, 1.0, 1.0, 1.0, dt))
        expect = np.exp(-np.trapezoid(mt.values - m.values, m.grid))
        assert pred == pytest.approx(expect, abs=1e-8)


class TestFirstOrderOptimality:
    def test_perturbations_never_beat_synthesized_control(self):
        rng = np.random.default_rng(30)
        g, entries = make_rank_kernel(rng, 5, 2)
        p = gl.LqrProblem(0.4, input_poly(rng, 1), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        dt = 1e-3
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(5, 31)
        gains = synthesize_gains(p, dt)
        base = feedback_controller(p, gains)
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
        law = feedback_controller(p, synthesize_gains(p, 1e-2))
        x = gl.initial_state(n, 4)
        for t in (0.0, 0.5, 1.0):
            law(t, x)
            reconstruct_P(law.gains, g, t, n)
        project_state(x, g)
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
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, 1e-2))
        for call in (lambda: project_state(np.zeros(0), g), lambda: g.apply(np.zeros(0)),
                     lambda: law(0.5, np.zeros(0)), lambda: gl.sample_step_entries(g, 0),
                     lambda: reconstruct_P(law.gains, g, 0.5, 0)):
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
        fun, vec = project_state(x, g), project_state(x(mids), g)
        np.testing.assert_allclose(fun.eigen_coords, vec.eigen_coords, atol=1e-9)
        np.testing.assert_allclose(fun.auxiliary(mids), vec.auxiliary, atol=1e-9)
        assert isinstance(fun.auxiliary(0.3), float)
        np.testing.assert_allclose(g.apply(x)(mids), g.apply(x(mids)), atol=1e-9)
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)
        law = feedback_controller(p, synthesize_gains(p, 1e-2))
        np.testing.assert_allclose(law(0.25, x)(mids), law(0.25, x(mids)), atol=1e-9)
