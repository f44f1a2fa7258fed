import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
from graphon_lqr.integrate import uniform_grid
import graphon_lqr.riccati as riccati_module
from graphon_lqr.riccati import riccati_explicit, riccati_path, solve_matrix_riccati

from conftest import algebraic_root


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
        # y' = -y, y(0) = 1 (alpha = -1/2, beta = q = 0); halving dt must
        # shrink the error ~16x
        errs = []
        for dt in (1e-2, 5e-3):
            _, y = riccati_path(-0.5, 0.0, 0.0, 1.0, 1.0, dt)
            errs.append(abs(y[-1] - np.exp(-1.0)))
        assert errs[0] / errs[1] > 12.0

    def test_blow_up_names_step(self):
        # y' = 800 y from 1 (alpha = 400, beta = q = 0) overflows before t = 2
        with pytest.raises(gl.BlowUpError, match="step"):
            riccati_path(400.0, 0.0, 0.0, 1.0, 2.0, 1e-3)


class TestSpecValidation:
    """Both scalar solvers check their parameters the same way."""

    @staticmethod
    def solvers():
        grid = uniform_grid(1.0, 1e-2)
        return (lambda *args: riccati_explicit(*args, grid),
                lambda *args: riccati_path(*args, 1.0, 1e-2))

    def test_negative_q_rejected(self):
        for solve in self.solvers():
            with pytest.raises(ValueError, match="parameter q must be >= 0"):
                solve(0.0, 1.0, -0.1, 0.0)

    def test_negative_z0_rejected(self):
        for solve in self.solvers():
            with pytest.raises(ValueError, match="parameter z0 must be >= 0"):
                solve(0.0, 1.0, 0.0, -0.1)

    @pytest.mark.parametrize("index, name", enumerate(["alpha", "beta", "q", "z0"]))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, index, name, value):
        # one bad entry of an array of equations is named; no warning escapes
        for solve in self.solvers():
            params = [np.array([0.5, 0.5]), 1.0, 1.0, 0.2]
            params[index] = np.array([0.5, value]) if index == 0 else value
            with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
                solve(*params)

    def test_dt_larger_than_horizon_rejected(self):
        with pytest.raises(ValueError):
            riccati_path(0.0, 1.0, 1.0, 0.0, 1.0, 2.0)


class TestNumeric:
    def test_monotone_rise_to_algebraic_root(self):
        # auxiliary equation of the sinusoidal showcase: dL = 4L - L^2 + 1
        _, vals = riccati_path(2.0, 1.0, 1.0, 1.0, 5.0, 1e-3)
        root = algebraic_root(2.0, 1.0, 1.0)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= 0.0)
        assert vals[-1] == pytest.approx(root, abs=1e-3)
        assert np.all(vals <= root + 1e-9)

    def test_zero_weights_stay_zero(self):
        grid, vals = riccati_path(1.5, 2.0, 0.0, 0.0, 1.0, 1e-3)
        np.testing.assert_array_equal(vals, np.zeros_like(grid))

    def test_tanh_solution(self):
        # dPi = 1 - Pi^2 from 0 has the separable solution tanh(t)
        grid, vals = riccati_path(0.0, 1.0, 1.0, 0.0, 1.0, 1e-4)
        assert vals[-1] == pytest.approx(np.tanh(1.0), abs=1e-8)
        np.testing.assert_allclose(vals, np.tanh(grid), atol=1e-8)


class TestAlgebraicRoot:
    """`conftest.algebraic_root`, the rest point that root starts and the
    acceptance sweep's skip rule read."""

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

    @pytest.mark.parametrize("alpha, beta, q", [(-40.0, 2.0, 1e-8), (-3.0, 1e-3, 2.0),
                                                (-1.0, 0.5, 1e-12)])
    def test_stable_drift_relative_residual(self, alpha, beta, q):
        # S is about q/(2|alpha|) here; alpha/beta^2 + sqrt(...) would cancel
        s = algebraic_root(alpha, beta, q)
        assert abs(2 * alpha * s - beta ** 2 * s ** 2 + q) <= 1e-13 * q


class TestClosedForm:
    def test_tanh_case(self):
        grid = uniform_grid(1.0, 1e-3)
        np.testing.assert_allclose(riccati_explicit(0.0, 1.0, 1.0, 0.0, grid),
                                   np.tanh(grid), atol=1e-8)

    def test_showcase_eigengain_matches_numeric(self):
        grid, num = riccati_path(2.5, 1.25, 0.25, 0.25, 1.0, 1e-4)
        cf = riccati_explicit(2.5, 1.25, 0.25, 0.25, grid)
        assert np.abs(num - cf).max() <= 1e-6

    def test_beta_zero_linear_fallback(self):
        for alpha in (0.7, 0.0):
            grid, num = riccati_path(alpha, 0.0, 0.4, 0.2, 1.0, 1e-4)
            cf = riccati_explicit(alpha, 0.0, 0.4, 0.2, grid)
            assert np.abs(num - cf).max() <= 1e-10

    def test_zero_decay_rate_degeneracy(self):
        # alpha = q = 0 makes the exponent vanish; dPi = -Pi^2 solves to
        # 1/(1/z0 + t)
        grid = uniform_grid(1.0, 1e-3)
        np.testing.assert_allclose(riccati_explicit(0.0, 1.0, 0.0, 2.0, grid),
                                   1.0 / (0.5 + grid), atol=1e-12)

    def test_start_below_root(self):
        grid, num = riccati_path(1.0, 0.8, 1.3, 0.0, 4.0, 1e-3)
        cf = riccati_explicit(1.0, 0.8, 1.3, 0.0, grid)
        assert np.abs(num - cf).max() <= 1e-6

    def test_start_above_root(self):
        s = algebraic_root(-0.5, 1.0, 0.3)
        grid, num = riccati_path(-0.5, 1.0, 0.3, s + 1.5, 4.0, 1e-3)
        cf = riccati_explicit(-0.5, 1.0, 0.3, s + 1.5, grid)
        assert np.abs(num - cf).max() <= 1e-6

    def test_stiff_parameters_stay_finite(self):
        # exp(2*sqrt(alpha^2 + q*beta^2)*T) overflows the naive bracket here
        grid, num = riccati_path(-40.0, 2.0, 1.0, 0.5, 5.0, 1e-4)
        cf = riccati_explicit(-40.0, 2.0, 1.0, 0.5, grid)
        assert np.all(np.isfinite(cf))
        assert cf[0] == pytest.approx(0.5, abs=1e-12)
        assert cf[-1] == pytest.approx(algebraic_root(-40.0, 2.0, 1.0), abs=1e-9)
        assert np.abs(num - cf).max() <= 1e-8


class TestExplicitSolver:
    """`riccati_explicit`, the solution every synthesis path uses."""

    @pytest.mark.parametrize("beta", [1e-3, 1e-6, 1e-9])
    @pytest.mark.parametrize("alpha, q, z0", [(1.0, 1.0, 0.5), (2.0, 0.5, 0.25),
                                              (-1.0, 1.0, 2.0)])
    def test_small_beta_matches_rk4(self, alpha, beta, q, z0):
        grid, ref = riccati_path(alpha, beta, q, z0, 1.0, 1e-4)
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
            _, lo = riccati_path(alpha, beta, qs[0], z0, 2.0, 1e-3)
            _, hi = riccati_path(alpha, beta, qs[1], z0, 2.0, 1e-3)
            assert np.all(hi >= lo - 1e-12)

    def test_nonnegative_gains(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            _, vals = riccati_path(rng.uniform(-3, 3), rng.uniform(0, 2),
                                   rng.uniform(0, 2), rng.uniform(0, 2), 2.0, 1e-3)
            assert np.all(vals >= 0.0)

    def test_fourth_order_convergence(self):
        def err(dt):
            grid, num = riccati_path(1.2, 0.8, 0.7, 0.3, 2.0, dt)
            return np.abs(num - riccati_explicit(1.2, 0.8, 0.7, 0.3, grid)).max()
        e1, e2, e3 = err(2e-3), err(1e-3), err(5e-4)
        assert e1 / e2 >= 8.0
        assert e2 / e3 >= 8.0


class TestGainCurve:
    """The oracle controller's read of its gain path, ``u = -B P(T - t) x``.

    With ``x = I`` the controller returns the gain matrix ``-B P(T - t)``
    itself, read linearly between the nodes of the path and clamped to its
    end samples.
    """

    N, DT = 8, 0.1

    def oracle(self, problem):
        sys_ = gl.build_step_system(gl.sample_step_entries(problem.graphon, self.N),
                                    problem)
        controller, (grid, path) = gl.oracle_controller(sys_, self.DT)
        return controller, grid, -sys_.b_mat @ path

    def test_interpolation_is_linear(self, vii_problem):
        controller, grid, gains = self.oracle(vii_problem)
        eye = np.eye(self.N)
        for k in range(grid.size - 1):
            for w in (0.25, 0.5, 0.75):
                t = 1.0 - (grid[k] + w * self.DT)  # a share w of the way from node k
                expect = (1.0 - w) * gains[k] + w * gains[k + 1]
                np.testing.assert_allclose(controller(t, eye), expect, rtol=0,
                                           atol=1e-13 * np.abs(expect).max())

    def test_array_query_matches_scalar_queries(self, vii_problem):
        # per-time calls against np.interp of every gain entry over an array
        # of times, which also clamps to the end samples
        controller, grid, gains = self.oracle(vii_problem)
        times = np.array([-0.3, 0.0, 0.05, 0.31, 0.5, 0.99, 1.0, 1.4])
        flat = gains.reshape(grid.size, -1)
        interp = np.stack([np.interp(1.0 - times, grid, col) for col in flat.T], axis=-1)
        calls = np.array([controller(t, np.eye(self.N)) for t in times])
        np.testing.assert_allclose(calls.reshape(times.size, -1), interp, rtol=0,
                                   atol=1e-13 * np.abs(gains).max())

    def test_matrix_values(self, vii_problem):
        # the path's shape, its end samples exactly at and past either end,
        # and the midway blend of each pair of matrix samples
        controller, grid, gains = self.oracle(vii_problem)
        np.testing.assert_array_equal(grid, gl.uniform_grid(1.0, self.DT))
        assert gains.shape == (grid.size, self.N, self.N)
        x = gl.initial_state(self.N, 4)
        for t, end in ((0.0, -1), (-0.5, -1), (1.0, 0), (1.5, 0)):
            np.testing.assert_array_equal(controller(t, np.eye(self.N)), gains[end])
            np.testing.assert_allclose(controller(t, x), gains[end] @ x, rtol=1e-13)
        for k in range(grid.size - 1):
            t = 1.0 - 0.5 * (grid[k] + grid[k + 1])  # midway between nodes k and k + 1
            expect = 0.5 * (gains[k] + gains[k + 1]) @ x
            np.testing.assert_allclose(controller(t, x), expect, rtol=0,
                                       atol=1e-13 * np.abs(expect).max())


class TestMatrixRiccati:
    @pytest.mark.parametrize("name, shape", [
        ("A", (2, 3)), ("A", (2,)), ("B", (2, 1)), ("Q", (3, 3)), ("P0", (2,))])
    def test_rejection_names_its_cause(self, name, shape):
        # every matrix takes the shape (n, n) of A's n rows, A included
        mats = dict.fromkeys(("A", "B", "Q", "P0"), np.eye(2))
        mats[name] = np.ones(shape)
        with pytest.raises(ValueError) as info:
            solve_matrix_riccati(*mats.values(), 1.0, 0.1)
        assert type(info.value) is ValueError
        assert str(info.value) == f"matrix {name} must be square of shape (2, 2), got {shape}"

    def test_scalar_embedding_matches_scalar_solver(self):
        scalar = riccati_explicit(1.3, 0.7, 0.9, 0.4, uniform_grid(1.0, 1e-3))
        _, path = solve_matrix_riccati(np.array([[1.3]]), np.array([[0.7]]),
                                       np.array([[0.9]]), np.array([[0.4]]), 1.0, 1e-3)
        np.testing.assert_allclose(path[:, 0, 0], scalar, rtol=1e-13)

    def test_diagonal_system_decouples(self):
        alphas = np.array([0.5, -0.3, 1.1])
        betas = np.array([1.0, 0.4, 0.8])
        qs = np.array([0.2, 0.0, 1.5])
        z0s = np.array([0.0, 0.7, 0.3])
        _, path = solve_matrix_riccati(np.diag(alphas), np.diag(betas),
                                       np.diag(qs), np.diag(z0s), 1.0, 1e-3)
        for i in range(3):
            _, scalar = riccati_path(alphas[i], betas[i], qs[i], z0s[i], 1.0, 1e-3)
            np.testing.assert_allclose(path[:, i, i], scalar, atol=1e-9)
        off = path.copy()
        off[:, range(3), range(3)] = 0.0
        assert np.abs(off).max() <= 1e-12

    def test_path_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        q = c @ c.T / 4
        p0 = np.eye(4) * 0.3
        _, path = solve_matrix_riccati(a, b, q, p0, 1.0, 1e-3)
        gap = np.abs(path - np.transpose(path, (0, 2, 1))).max()
        assert gap <= 1e-10

    def test_samples_of_a_linear_solution(self):
        grid, path = solve_matrix_riccati(np.zeros((1, 1)), np.zeros((1, 1)),
                                          np.ones((1, 1)), np.zeros((1, 1)), 1.0, 0.25)
        # dP = Q here, so P(t) = t at every node
        np.testing.assert_array_equal(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert path.shape == (5, 1, 1)
        np.testing.assert_allclose(path[:, 0, 0], grid, rtol=0, atol=1e-12)

    def test_exact_step_does_not_depend_on_dt(self):
        rng = np.random.default_rng(9)
        a, b, c = rng.standard_normal((3, 4, 4))
        assert np.abs(a @ b - b @ a).max() > 1.0  # the matrices do not commute
        q, p0 = c @ c.T / 4, np.eye(4) * 0.3
        coarse_grid, coarse = solve_matrix_riccati(a, b, q, p0, 1.0, 0.05)
        fine_grid, fine = solve_matrix_riccati(a, b, q, p0, 1.0, 1e-3)
        np.testing.assert_allclose(coarse_grid, fine_grid[::50], rtol=0, atol=1e-15)
        np.testing.assert_allclose(coarse, fine[::50], rtol=0, atol=1e-12)

    def test_diagonal_system_is_explicit_solution_at_coarse_dt(self):
        alphas = np.array([0.5, -0.3, 1.1])
        betas = np.array([1.0, 0.4, 0.8])
        qs = np.array([0.2, 0.0, 1.5])
        z0s = np.array([0.0, 0.7, 0.3])
        grid, path = solve_matrix_riccati(np.diag(alphas), np.diag(betas),
                                          np.diag(qs), np.diag(z0s), 1.0, 0.1)
        explicit = riccati_explicit(alphas, betas, qs, z0s, grid)
        np.testing.assert_allclose(path, explicit[:, :, None] * np.eye(3),
                                   rtol=1e-14, atol=1e-15)

    def test_nilpotent_hamiltonian(self):
        # alpha = q = 0: dP = -beta^2 P^2, so P = z0/(1 + beta^2 z0 tau)
        beta, z0 = 1.7, 0.8
        grid, path = solve_matrix_riccati(np.zeros((1, 1)), np.array([[beta]]),
                                          np.zeros((1, 1)), np.array([[z0]]), 2.0, 0.1)
        np.testing.assert_allclose(path[:, 0, 0], z0 / (1.0 + beta ** 2 * z0 * grid),
                                   rtol=1e-14)

    def test_stiff_single_steps_stay_exact(self):
        # a rotated diagonal system with h*|H|_1 far above 1, so every step is
        # taken alone; P is the rotated explicit solution
        rng = np.random.default_rng(4)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        alphas = np.array([2.0, -1.0, 0.5])
        betas = np.array([30.0, 10.0, 20.0])
        qs = np.array([4.0, 1.0, 2.0])
        z0s = np.array([0.1, 2.0, 0.0])

        def rot(v):
            return u @ np.diag(v) @ u.T

        a, b = rot(alphas), rot(betas)
        ham = np.block([[a.T, rot(qs)], [b @ b.T, -a]])
        assert 0.1 * np.abs(ham).sum(axis=0).max() > 50.0
        grid, path = solve_matrix_riccati(a, b, rot(qs), rot(z0s), 1.0, 0.1)
        explicit = riccati_explicit(alphas, betas, qs, z0s, grid)
        np.testing.assert_allclose(path, np.einsum("ij,kj,lj->kil", u, explicit, u),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("norm", [0.0, 1e-6, 5e-3, 0.3, 0.97, 6.0])
    def test_expm_matches_the_spectral_exponential(self, norm):
        # a small norm takes fewer Taylor terms and keeps the precision
        rng = np.random.default_rng(2)
        s = rng.standard_normal((6, 6))
        s = (s + s.T) * (norm / np.abs(s + s.T).sum(axis=0).max())
        w, v = np.linalg.eigh(s)
        np.testing.assert_allclose(riccati_module._expm(s), (v * np.exp(w)) @ v.T,
                                   rtol=0, atol=1e-14 * np.exp(norm))

    def test_chunk_keeps_its_conditioning_and_the_grid(self):
        # m = 2^i, the longest chunk with m*h*|H|_1 <= 1 and m <= K: a zero
        # Hamiltonian at n = 256 takes chunks of 512 of its 1000 steps, and
        # of 16 of 20
        zero = np.zeros((256, 256))
        s, _, squares = riccati_module._step_rule(zero, zero, zero, 1.0, 1000)
        assert s == 1.0 and len(squares) == 10  # m = 2^9 = 512
        np.testing.assert_array_equal(squares[-1], np.eye(512))
        zero = np.zeros((1, 1))
        assert len(riccati_module._step_rule(zero, zero, zero, 1.0, 20)[2]) == 5  # m = 16
        # |B B'|_1 = 2.25 and |Q|_1 = 1: s = 2, the power of two nearest 1.5,
        # and |H|_1 = 2.3 leaves m = 256 of 1000 steps
        s, ham_h, squares = riccati_module._step_rule(
            np.array([[0.3]]), np.array([[1.5]]), np.ones((1, 1)), 1.0, 1000)
        assert s == 2.0 and len(squares) == 9
        np.testing.assert_array_equal(ham_h, np.array([[0.3, 2.0], [1.125, -0.3]]) * (1.0 / 1000))
        for i in range(8):
            assert np.array_equal(squares[i + 1], squares[i] @ squares[i])
        # E^j b is the squares of j's set bits applied to b lowest first, bit
        # for bit, whatever order the chunk asks for them in, and each
        # product is formed once per chunk
        products = []

        class Counted:
            def __init__(self, e):
                self.e = e

            def __matmul__(self, v):
                products.append(self)
                return self.e @ v

        b = np.array([[0.7], [1.0]])
        memo = {0: b}
        counted = [Counted(e) for e in squares]
        for j in [255, *range(1, 257)]:
            v = b
            for i, square in enumerate(squares):
                if j >> i & 1:
                    v = square @ v
            assert np.array_equal(riccati_module._power_times(counted, j, memo), v)
        assert len(products) == 256 and sorted(memo) == list(range(257))
        np.testing.assert_allclose(memo[255], riccati_module._expm(ham_h * 255) @ b, rtol=1e-13)

    def test_non_finite_step_raises(self):
        # exp(H h) overflows at h*omega = 800
        with pytest.raises(gl.BlowUpError, match="not finite at t = 1"):
            solve_matrix_riccati(np.array([[800.0]]), np.ones((1, 1)), np.ones((1, 1)),
                                 np.ones((1, 1)), 1.0, 1.0)
