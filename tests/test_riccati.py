import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
from graphon_lqr.integrate import rk4_path, rk4_step, uniform_grid
from graphon_lqr.riccati import (Curve, ScalarRiccatiSpec, algebraic_root, riccati_explicit,
                                 riccati_path, solve_matrix_riccati,
                                 solve_riccati_closed_form, solve_riccati_numeric)


class TestGrid:
    def test_endpoints_and_count(self):
        grid = uniform_grid(1.0, 1e-3)
        assert grid.size == 1001
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            uniform_grid(1.0, 2.0)
        with pytest.raises(ValueError):
            uniform_grid(-1.0, 0.1)


class TestRk4:
    def test_exponential_order(self):
        # y' = -y, y(0) = 1; halving dt must shrink the error ~16x
        errs = []
        for dt in (1e-2, 5e-3):
            grid = uniform_grid(1.0, dt)
            y = rk4_path(lambda t, v: -v, 1.0, grid)
            errs.append(abs(y[-1] - np.exp(-1.0)))
        assert errs[0] / errs[1] > 12.0

    def test_blow_up_names_step(self):
        # y' = y^2 from 1 explodes at t = 1
        grid = uniform_grid(2.0, 1e-3)
        with np.errstate(over="ignore"), pytest.raises(gl.BlowUpError, match="step"):
            rk4_path(lambda t, v: v * v, 1.0, grid)

    def test_array_times_name_earliest_failing_step(self):
        # three independent steps of y' = y^2, one row each; the rows that
        # start at 1e300 overflow, and the earlier of them ends at t = 0.25
        t = np.array([[0.3], [0.5], [0.15]])
        y = np.array([[1.0], [1e300], [1e300]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(gl.BlowUpError, match=r"step to t = 0\.25:"):
            rk4_step(lambda s, v: v * v, t, 0.1, y, y * y)
        step = rk4_step(lambda s, v: v * v, t, 0.1, np.ones((3, 1)), np.ones((3, 1)))
        np.testing.assert_array_equal(step, rk4_step(lambda s, v: v * v, 0.3, 0.1,
                                                     np.ones(3), np.ones(3))[:, None])


class TestSpecValidation:
    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            ScalarRiccatiSpec(0.0, 1.0, -0.1, 0.0, 1.0, 1e-2)

    def test_negative_z0_rejected(self):
        with pytest.raises(ValueError):
            ScalarRiccatiSpec(0.0, 1.0, 0.0, -0.1, 1.0, 1e-2)

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            ScalarRiccatiSpec(0.0, 1.0, 1.0, 0.0, 1.0, 2.0)


class TestNumeric:
    def test_monotone_rise_to_algebraic_root(self):
        # auxiliary equation of the sinusoidal showcase: dL = 4L - L^2 + 1
        curve = solve_riccati_numeric(ScalarRiccatiSpec(2.0, 1.0, 1.0, 1.0, 5.0, 1e-3))
        root = algebraic_root(2.0, 1.0, 1.0)
        assert np.all(np.diff(curve.values) >= -1e-12)
        assert np.all(curve.values >= 0.0)
        assert curve.values[-1] == pytest.approx(root, abs=1e-3)
        assert np.all(curve.values <= root + 1e-9)

    def test_zero_weights_stay_zero(self):
        curve = solve_riccati_numeric(ScalarRiccatiSpec(1.5, 2.0, 0.0, 0.0, 1.0, 1e-3))
        np.testing.assert_array_equal(curve.values, np.zeros_like(curve.grid))

    def test_tanh_solution(self):
        # dPi = 1 - Pi^2 from 0 has the separable solution tanh(t)
        curve = solve_riccati_numeric(ScalarRiccatiSpec(0.0, 1.0, 1.0, 0.0, 1.0, 1e-4))
        assert curve(1.0) == pytest.approx(np.tanh(1.0), abs=1e-8)
        np.testing.assert_allclose(curve.values, np.tanh(curve.grid), atol=1e-8)


class TestAlgebraicRoot:
    def test_reference_value(self):
        s = algebraic_root(2.0, 1.0, 1.0)
        assert s == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-12)

    def test_residual_small(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            alpha = rng.uniform(-2, 3)
            beta = rng.uniform(0.2, 2)
            q = rng.uniform(0, 2)
            s = algebraic_root(alpha, beta, q)
            assert abs(2 * alpha * s - beta ** 2 * s ** 2 + q) <= 1e-12

    def test_pure_diffusion(self):
        assert algebraic_root(0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_stable_costfree_root_is_zero(self):
        assert algebraic_root(-1.0, 1.0, 0.0) == 0.0

    def test_zero_beta_is_division_error(self):
        with pytest.raises(ZeroDivisionError):
            algebraic_root(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, q", [(-40.0, 2.0, 1e-8), (-3.0, 1e-3, 2.0),
                                                (-1.0, 0.5, 1e-12)])
    def test_stable_drift_relative_residual(self, alpha, beta, q):
        # S is about q/(2|alpha|) here; alpha/beta^2 + sqrt(...) would cancel
        s = algebraic_root(alpha, beta, q)
        assert abs(2 * alpha * s - beta ** 2 * s ** 2 + q) <= 1e-13 * q


class TestClosedForm:
    def test_equilibrium_start_is_constant(self):
        s = algebraic_root(1.0, 1.0, 2.0)
        curve = solve_riccati_closed_form(ScalarRiccatiSpec(1.0, 1.0, 2.0, s, 1.0, 1e-3))
        np.testing.assert_array_equal(curve.values, np.full_like(curve.grid, s))

    def test_tanh_case(self):
        curve = solve_riccati_closed_form(ScalarRiccatiSpec(0.0, 1.0, 1.0, 0.0, 1.0, 1e-3))
        np.testing.assert_allclose(curve.values, np.tanh(curve.grid), atol=1e-8)

    def test_showcase_eigengain_matches_numeric(self):
        spec = ScalarRiccatiSpec(2.5, 1.25, 0.25, 0.25, 1.0, 1e-4)
        num = solve_riccati_numeric(spec)
        cf = solve_riccati_closed_form(spec)
        assert np.abs(num.values - cf.values).max() <= 1e-6

    def test_beta_zero_linear_fallback(self):
        for alpha in (0.7, 0.0):
            spec = ScalarRiccatiSpec(alpha, 0.0, 0.4, 0.2, 1.0, 1e-4)
            num = solve_riccati_numeric(spec)
            cf = solve_riccati_closed_form(spec)
            assert np.abs(num.values - cf.values).max() <= 1e-10

    def test_zero_decay_rate_degeneracy(self):
        # alpha = q = 0 makes the exponent vanish; dPi = -Pi^2 solves to
        # 1/(1/z0 + t)
        spec = ScalarRiccatiSpec(0.0, 1.0, 0.0, 2.0, 1.0, 1e-3)
        curve = solve_riccati_closed_form(spec)
        np.testing.assert_allclose(curve.values, 1.0 / (0.5 + curve.grid), atol=1e-12)

    def test_start_below_root(self):
        spec = ScalarRiccatiSpec(1.0, 0.8, 1.3, 0.0, 4.0, 1e-3)
        num = solve_riccati_numeric(spec)
        cf = solve_riccati_closed_form(spec)
        assert np.abs(num.values - cf.values).max() <= 1e-6

    def test_start_above_root(self):
        s = algebraic_root(-0.5, 1.0, 0.3)
        spec = ScalarRiccatiSpec(-0.5, 1.0, 0.3, s + 1.5, 4.0, 1e-3)
        num = solve_riccati_numeric(spec)
        cf = solve_riccati_closed_form(spec)
        assert np.abs(num.values - cf.values).max() <= 1e-6

    def test_stiff_parameters_stay_finite(self):
        # exp(2*sqrt(alpha^2 + q*beta^2)*T) overflows the naive bracket here
        spec = ScalarRiccatiSpec(-40.0, 2.0, 1.0, 0.5, 5.0, 1e-4)
        cf = solve_riccati_closed_form(spec)
        assert np.all(np.isfinite(cf.values))
        assert cf.values[0] == pytest.approx(0.5, abs=1e-12)
        assert cf.values[-1] == pytest.approx(algebraic_root(-40.0, 2.0, 1.0),
                                              abs=1e-9)
        num = solve_riccati_numeric(spec)
        assert np.abs(num.values - cf.values).max() <= 1e-8


class TestExplicitSolver:
    """`riccati_explicit`, the solution every synthesis path uses."""

    @pytest.mark.parametrize("beta", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("alpha, q, z0", [(1.0, 1.0, 0.5), (2.0, 0.5, 0.25),
                                              (-1.0, 1.0, 2.0)])
    def test_small_beta_matches_rk4(self, alpha, beta, q, z0):
        grid, ref = riccati_path(alpha, beta, q, z0, 1.0, 1e-4)
        spec = ScalarRiccatiSpec(alpha, beta, q, z0, 1.0, 1e-4)
        assert np.abs(solve_riccati_closed_form(spec).values - ref).max() <= 1e-10
        assert np.abs(riccati_explicit(alpha, beta, q, z0, grid) - ref).max() <= 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(-3.0, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0),
           st.floats(0.0, 2.0))
    def test_matches_rk4(self, alpha, beta, q, z0):
        grid, ref = riccati_path(alpha, beta, q, z0, 1.0, 1e-3)
        np.testing.assert_allclose(riccati_explicit(alpha, beta, q, z0, grid), ref,
                                   rtol=1e-8, atol=1e-12)

    def test_vectorized_shape_and_start(self):
        rng = np.random.default_rng(5)
        alpha, beta = rng.uniform(-3, 3, 7), rng.uniform(0, 2, 7)
        q, z0 = rng.uniform(0, 2, 7), rng.uniform(0, 2, 7)
        grid = uniform_grid(2.0, 1e-2)
        vals = riccati_explicit(alpha, beta, q, z0, grid)
        assert vals.shape == (201, 7)
        assert np.array_equal(vals[0], z0)  # bit for bit
        for k in range(7):
            np.testing.assert_array_equal(
                vals[:, k], riccati_explicit(alpha[k], beta[k], q[k], z0[k], grid))

    def test_zero_weights_stay_zero_under_fast_drift(self):
        # Y underflows to zero but X vanishes: the solution is exactly zero
        grid = uniform_grid(1.0, 1e-3)
        np.testing.assert_array_equal(riccati_explicit(5000.0, 0.0, 0.0, 0.0, grid), 0.0)

    def test_overflow_is_blow_up(self):
        grid = uniform_grid(1.0, 1e-3)
        with pytest.raises(gl.BlowUpError, match="t = 0.07"):
            riccati_explicit(5000.0, 0.0, 1.0, 1.0, grid)


class TestProperties:
    def test_monotone_in_state_weight(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            alpha = rng.uniform(-2, 2)
            beta = rng.uniform(0.2, 2)
            z0 = rng.uniform(0, 2)
            qs = np.sort(rng.uniform(0, 2, 2))
            lo = solve_riccati_numeric(ScalarRiccatiSpec(alpha, beta, qs[0], z0, 2.0, 1e-3))
            hi = solve_riccati_numeric(ScalarRiccatiSpec(alpha, beta, qs[1], z0, 2.0, 1e-3))
            assert np.all(hi.values >= lo.values - 1e-12)

    def test_nonnegative_gains(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = ScalarRiccatiSpec(rng.uniform(-3, 3), rng.uniform(0, 2),
                                     rng.uniform(0, 2), rng.uniform(0, 2), 2.0, 1e-3)
            assert np.all(solve_riccati_numeric(spec).values >= 0.0)

    def test_fourth_order_convergence(self):
        spec = lambda dt: ScalarRiccatiSpec(1.2, 0.8, 0.7, 0.3, 2.0, dt)
        def err(dt):
            num = solve_riccati_numeric(spec(dt))
            cf = solve_riccati_closed_form(spec(dt))
            return np.abs(num.values - cf.values).max()
        e1, e2, e3 = err(2e-3), err(1e-3), err(5e-4)
        assert e1 / e2 >= 8.0
        assert e2 / e3 >= 8.0


class TestGainCurve:
    """`Curve`, the uniform-grid interpolator of every gain and path."""

    def test_interpolation_is_linear(self):
        curve = Curve([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        assert curve(0.5) == pytest.approx(1.0)
        assert curve(1.5) == pytest.approx(2.0)
        assert curve(-1.0) == 0.0 and curve(3.0) == 2.0

    def test_array_query_matches_scalar_queries(self):
        curve = Curve(np.linspace(0.0, 1.0, 11), np.sin(np.arange(11.0)))
        times = np.array([-0.3, 0.0, 0.05, 0.31, 0.5, 0.99, 1.0, 1.4])
        np.testing.assert_array_equal(curve(times), [curve(t) for t in times])

    def test_matrix_values(self):
        rng = np.random.default_rng(3)
        grid = gl.uniform_grid(0.7, 0.1)
        values = rng.standard_normal((grid.size, 3, 2))
        curve = Curve(grid, values)
        times = np.array([-0.2, 0.0, 0.03, 0.25, 0.5, 0.69, 0.7, 0.9])
        out = curve(times)
        assert out.shape == (8, 3, 2)
        np.testing.assert_array_equal(out, [curve(t) for t in times])
        np.testing.assert_array_equal(out[0], values[0])
        np.testing.assert_array_equal(out[1], values[0])
        np.testing.assert_array_equal(out[-2], values[-1])
        np.testing.assert_array_equal(out[-1], values[-1])
        np.testing.assert_array_equal(curve(np.float64(0.7)), values[-1])
        np.testing.assert_allclose(out[3], 0.5 * (values[2] + values[3]), rtol=1e-12)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            Curve([0.0, 0.1, 1.0], [0.0, 1.0, 1.0])

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            Curve([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Curve([0.0, 1.0], [1.0])


class TestMatrixRiccati:
    def test_scalar_embedding_matches_scalar_solver(self):
        spec = ScalarRiccatiSpec(1.3, 0.7, 0.9, 0.4, 1.0, 1e-3)
        scalar = solve_riccati_numeric(spec)
        path = solve_matrix_riccati(np.array([[1.3]]), np.array([[0.7]]),
                                    np.array([[0.9]]), np.array([[0.4]]), 1.0, 1e-3)
        np.testing.assert_allclose(path.values[:, 0, 0], scalar.values, rtol=1e-13)

    def test_diagonal_system_decouples(self):
        alphas = np.array([0.5, -0.3, 1.1])
        betas = np.array([1.0, 0.4, 0.8])
        qs = np.array([0.2, 0.0, 1.5])
        z0s = np.array([0.0, 0.7, 0.3])
        path = solve_matrix_riccati(np.diag(alphas), np.diag(betas),
                                    np.diag(qs), np.diag(z0s), 1.0, 1e-3)
        for i in range(3):
            scalar = solve_riccati_numeric(
                ScalarRiccatiSpec(alphas[i], betas[i], qs[i], z0s[i], 1.0, 1e-3))
            np.testing.assert_allclose(path.values[:, i, i], scalar.values,
                                       atol=1e-9)
        off = path.values.copy()
        off[:, range(3), range(3)] = 0.0
        assert np.abs(off).max() <= 1e-12

    def test_path_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        q = c @ c.T / 4
        p0 = np.eye(4) * 0.3
        path = solve_matrix_riccati(a, b, q, p0, 1.0, 1e-3)
        gap = np.abs(path.values - np.transpose(path.values, (0, 2, 1))).max()
        assert gap <= 1e-10

    def test_interpolation_midpoint(self):
        path = solve_matrix_riccati(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.ones((1, 1)), np.zeros((1, 1)), 1.0, 0.5)
        # dP = Q here, so P(t) = t
        np.testing.assert_allclose(path(0.25)[0, 0], 0.25, atol=1e-12)
