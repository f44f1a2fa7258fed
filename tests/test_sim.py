import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
import graphon_lqr.lqr as lqr_module
import graphon_lqr.riccati as riccati_module
import graphon_lqr.sim as sim_module
from graphon_lqr.graphon import midpoint_grid
from graphon_lqr.lqr import feedback_controller, synthesize_gains, truncate_problem
from graphon_lqr.poly import apply_poly_matrix

from conftest import admissible_poly, input_poly, make_rank_kernel, sinusoidal_problem


def scalar_problem(alpha0, beta0=1.0, q0=1.0, z0=1.0, horizon=1.0):
    g = gl.sinusoidal_graphon().truncate(0)
    return gl.LqrProblem(alpha0, gl.CoeffPoly([beta0]), gl.CoeffPoly([q0]),
                         gl.CoeffPoly([z0]), g, horizon)


class TestBuildStepSystem:
    def test_single_node(self):
        p = scalar_problem(0.7, beta0=1.3)
        sys_ = gl.build_step_system(np.zeros((1, 1)), p)
        np.testing.assert_allclose(sys_.a_mat, [[0.7]])
        np.testing.assert_allclose(sys_.b_mat, [[1.3]])

    def test_uniform_coupling(self):
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), 1.0)
        sys_ = gl.build_step_system(np.ones((4, 4)), p)
        np.testing.assert_allclose(sys_.a_mat,
                                   0.5 * np.eye(4) + np.ones((4, 4)) / 4, atol=1e-15)

    def test_sampled_sinusoidal_spectrum(self):
        p = sinusoidal_problem()
        entries = gl.sample_step_entries(p.graphon, 40)
        sys_ = gl.build_step_system(entries, p)
        mus = np.sort(np.linalg.eigvalsh(entries / 40))[::-1]
        # two dominant operator eigenvalues near 1/2, the rest near zero
        np.testing.assert_allclose(mus[:2], [0.5, 0.5], atol=1e-3)
        assert np.abs(mus[2:]).max() <= 1e-3

    def test_asymmetric_entries_rejected_with_indices(self):
        p = sinusoidal_problem()
        m = np.zeros((3, 3))
        m[1, 2] = 0.4
        with pytest.raises(ValueError, match=r"\(1,2\)"):
            gl.build_step_system(m, p)

    def test_out_of_bound_entries_rejected(self):
        p = sinusoidal_problem()  # kernel bound is 1
        with pytest.raises(ValueError, match="bound"):
            gl.build_step_system(np.full((2, 2), 3.0), p)

    @pytest.mark.parametrize("kernel", ["zero", "uniform"])
    def test_residual_sees_last_partial_row_block(self, kernel):
        n, delta = 70, 0.375
        assert n > sim_module._RESIDUAL_ROWS and n % sim_module._RESIDUAL_ROWS
        if kernel == "zero":
            g, entries = gl.uniform_graphon().truncate(0), np.zeros((n, n))
        else:
            g, entries = gl.uniform_graphon(), np.ones((n, n))
        f = g.eigfun_values(midpoint_grid(n))
        assert sim_module.decoupling_residual(entries, f, g.lambdas) <= 1e-15
        entries[n - 1, 3] += delta
        residual = sim_module.decoupling_residual(entries, f, g.lambdas)
        if kernel == "zero":
            assert residual == delta / n
        else:
            assert residual == pytest.approx(delta / n, rel=1e-12)

    def test_indefinite_weight_rejected(self):
        # entries/2 has eigenvalues 1 and 0: q(s) = 1 - 1.5 s^2 is nonnegative on
        # the kernel spectrum {1/2, 0} but -0.5 at s = 1, so Q would be indefinite;
        # two cells do not decouple the sinusoidal kernel in the first place, and
        # the system is rejected for that when it is built
        g = gl.sinusoidal_graphon()
        p = gl.LqrProblem(0.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, 0.0, -1.5]),
                          gl.CoeffPoly([1.0]), g, 1.0)
        with pytest.raises(ValueError, match="does not decouple") as err:
            gl.build_step_system(gl.sample_step_entries(g, 2), p)
        assert "q_mat" not in str(err.value)

    def test_non_decoupling_network_rejected(self, vii_problem, monkeypatch):
        # one cell, or two that sample sin(2 pi x) and cos(2 pi x) to a Gram
        # matrix diag(2, 0), cannot hold the two eigendirections apart; the
        # library rejects them before any dense matrix is assembled
        monkeypatch.setattr(sim_module, "apply_poly_matrix", None)
        for n in (1, 2):
            entries = gl.sample_step_entries(vii_problem.graphon, n)
            with pytest.raises(ValueError, match=(
                    rf"the {n}-cell network does not decouple along the d = 2 kernel "
                    r"eigenfunctions: decoupling residual \d\.\d{3}e[+-]\d{2} "
                    r"exceeds 1e-10")):
                gl.build_step_system(entries, vii_problem)


class TestSimulate:
    def test_uncontrolled_uncoupled_state_is_constant(self):
        p = scalar_problem(0.0)
        sys_ = gl.build_step_system(np.zeros((3, 3)), p)
        traj = gl.simulate(sys_, lambda t, x: np.zeros(3), np.array([1.0, -2.0, 0.5]),
                           1.0, 1e-2)
        np.testing.assert_array_equal(traj.states[-1], [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(traj.controls, np.zeros_like(traj.states))

    def test_exponential_decay_oracle(self):
        p = scalar_problem(-1.0)
        sys_ = gl.build_step_system(np.zeros((1, 1)), p)
        traj = gl.simulate(sys_, lambda t, x: np.zeros(1), np.ones(1), 1.0, 1e-3)
        assert traj.states[-1][0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_blow_up_reports_time(self):
        p = scalar_problem(800.0)
        sys_ = gl.build_step_system(np.zeros((1, 1)), p)
        with np.errstate(over="ignore"), pytest.raises(gl.BlowUpError, match="t ="):
            gl.simulate(sys_, lambda t, x: np.zeros(1), np.ones(1), 1.0, 1e-3)

    def test_generic_loop_is_classic_rk4(self, vii_problem):
        # the generic loop against RK4 written out here, bit for bit, with the
        # controller called 4K + 1 times
        n, dt, horizon = 6, 1e-2, vii_problem.horizon
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        calls = []

        def controller(t, x):
            calls.append(t)
            return law(t, x)

        x0 = gl.initial_state(n, 5)
        traj = gl.simulate(sys_, controller, x0, horizon, dt)
        steps = traj.grid.size - 1
        assert len(calls) == 4 * steps + 1

        a, b = sys_.a_mat, sys_.b_mat

        def f(t, y):
            return a @ y + b @ law(t, y)

        x = x0
        for k in range(steps):
            t = traj.grid[k]
            h = traj.grid[k + 1] - t
            np.testing.assert_array_equal(traj.states[k], x)
            np.testing.assert_array_equal(traj.controls[k], law(t, x))
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = f(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_array_equal(traj.states[-1], x)
        np.testing.assert_array_equal(traj.controls[-1], law(horizon, x))

    @pytest.mark.parametrize("engine", ["modal", "generic"])
    def test_non_finite_initial_state_rejected(self, vii_problem, engine):
        n, dt = 12, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        controller = law if engine == "modal" else generic(law)
        x0 = gl.initial_state(n, 5)
        x0[3] = np.nan
        with pytest.raises(ValueError, match="initial state must be finite"):
            gl.simulate(sys_, controller, x0, 1.0, dt)

    def test_wrong_initial_shape(self):
        p = scalar_problem(0.0)
        sys_ = gl.build_step_system(np.zeros((2, 2)), p)
        with pytest.raises(ValueError):
            gl.simulate(sys_, lambda t, x: np.zeros(2), np.ones(3), 1.0, 1e-2)


def rel_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def generic(law):
    """The law behind a plain callable, which `simulate` runs in its generic loop."""
    return lambda t, x: law(t, x)


class TestModalEngine:
    """The modal closed loop against the generic loop on the same system."""

    def assert_loops_agree(self, sys_, law, x0, horizon, dt):
        modal = gl.simulate(sys_, law, x0, horizon, dt)
        loop = gl.simulate(sys_, generic(law), x0, horizon, dt)
        assert rel_gap(modal.states, loop.states) <= 1e-12
        assert rel_gap(modal.controls, loop.controls) <= 1e-12
        return modal

    def test_sampled_sinusoidal_matches_generic_loop(self, vii_problem):
        n, dt = 40, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        assert sys_.residual <= sim_module._DECOUPLING_TOL
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        self.assert_loops_agree(sys_, law, gl.initial_state(n, 6),
                                vii_problem.horizon, dt)

    # seed -> n of a full-rank case (rank = n); other seeds draw n and a rank < n
    FULL_RANK = {4: 1, 5: 2, 6: 5, 7: 8}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, *FULL_RANK])
    def test_random_rank_systems_and_low_rank_cost(self, seed):
        rng = np.random.default_rng(80 + seed)
        if seed in self.FULL_RANK:
            n = rank = self.FULL_RANK[seed]
        else:
            n, rank = int(rng.integers(5, 13)), int(rng.integers(1, 4))
        g, entries = make_rank_kernel(rng, n, rank)
        p = gl.LqrProblem(float(rng.uniform(-1.0, 2.0)), input_poly(rng, 2),
                          admissible_poly(rng, g.lambdas, 3),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        assert sys_.residual <= sim_module._DECOUPLING_TOL
        law = feedback_controller(p, synthesize_gains(p, 1e-3))
        traj = self.assert_loops_agree(sys_, law, gl.initial_state(n, seed), 1.0, 1e-3)
        assert traj.modes is not None
        # the low-rank cost against the dense quadratic forms
        x, u = traj.states, traj.controls
        q_mat = apply_poly_matrix(p.poly_q, entries / n)
        p0_mat = apply_poly_matrix(p.poly_p0, entries / n)
        run = np.einsum("ki,ij,kj->k", x, q_mat, x) / n + (u * u).sum(axis=1) / n
        dense = np.trapezoid(run, traj.grid) + x[-1] @ p0_mat @ x[-1] / n
        assert gl.evaluate_cost(traj, sys_).total == pytest.approx(dense, rel=1e-12)

    def test_full_rank_residual_stays_empty(self):
        # n = d leaves no residual; q(0) = z(0) = 0 leaves the residual gain at
        # zero, and a drift of 40 would blow its rounding up to the state's size
        m = np.array([[0.3, 0.2, -0.1], [0.2, -0.5, 0.4], [-0.1, 0.4, 0.6]])
        g = gl.StepGraphon(m).spectral_decompose()
        p = gl.LqrProblem(40.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0, 0.0, 1.0]),
                          gl.CoeffPoly([0.0, 0.0, 1.0]), g, 1.0)
        sys_ = gl.build_step_system(m, p)
        assert p.d == 3 and sys_.residual <= sim_module._DECOUPLING_TOL
        law = feedback_controller(p, synthesize_gains(p, 1e-3))
        traj = self.assert_loops_agree(sys_, law, gl.initial_state(3, 1), 1.0, 1e-3)
        assert traj.modes is not None and gl.evaluate_cost(traj, sys_).aux == 0.0

    def test_every_truncation_level(self, vii_problem):
        n, dt = 24, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 8)
        gains = synthesize_gains(vii_problem, dt)
        for level in range(vii_problem.d + 1):
            law = feedback_controller(truncate_problem(vii_problem, level), gains)
            self.assert_loops_agree(sys_, law, x0, vii_problem.horizon, dt)

    def test_law_of_another_kernel_object_runs_generic_loop(self, vii_problem):
        # an equal kernel built anew has other eigenpair objects: the modal
        # engine trusts only the system's own pairs
        n, dt = 16, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 12)
        own = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        twin = sinusoidal_problem()
        other = feedback_controller(twin, synthesize_gains(twin, dt))
        modal = gl.simulate(sys_, own, x0, 1.0, dt)
        loop = gl.simulate(sys_, other, x0, 1.0, dt)
        assert modal.modes is not None and loop.modes is None
        assert rel_gap(loop.states, modal.states) <= 1e-12
        assert rel_gap(loop.controls, modal.controls) <= 1e-12

    @pytest.mark.parametrize("engine", ["modal", "generic"])
    def test_law_horizon_bounds_the_run(self, vii_problem, engine):
        n, dt = 12, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        controller = law if engine == "modal" else generic(law)
        x0 = gl.initial_state(n, 13)
        with pytest.raises(ValueError, match="outside the horizon"):
            gl.simulate(sys_, controller, x0, 2.0, dt)
        traj = gl.simulate(sys_, controller, x0, 0.5, dt)
        assert (traj.modes is not None) == (engine == "modal")
        assert traj.grid[-1] == 0.5 and np.isfinite(traj.states).all()

    def test_decoupled_pipeline_builds_no_dense_matrix(self, vii_problem):
        n, dt = 300, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        traj = gl.simulate(sys_, law, gl.initial_state(n, 10), vii_problem.horizon, dt)
        gl.evaluate_cost(traj, sys_)
        dense = {"a_mat", "b_mat", "q_mat", "p0_mat"} & set(vars(sys_))
        assert not dense, f"materialized {sorted(dense)}"
        assert not any(isinstance(v, np.ndarray) and v.shape == (n, n)
                       for name, v in vars(sys_).items() if name != "entries")

    def test_propagation_requires_matching_initial_state(self, vii_problem):
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, 8),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, 1e-2))
        with pytest.raises(ValueError, match="initial state"):
            gl.simulate(sys_, law, np.ones(9), 1.0, 1e-2)

    def test_blow_up_reports_time(self):
        # q = p0 = 0 leaves the gains at zero and the unstable modes unchecked;
        # the state overflows near t = 0.79, the generic loop's stage sums a
        # few steps earlier
        p = gl.LqrProblem(900.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.uniform_graphon(), 1.0)
        sys_ = gl.build_step_system(np.ones((3, 3)), p)
        law = feedback_controller(p, synthesize_gains(p, 1e-3))
        with pytest.raises(gl.BlowUpError, match="t = 0.7"):
            gl.simulate(sys_, law, np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(gl.BlowUpError, match="t = 0.7"):
            gl.simulate(sys_, generic(law), np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)


class TestModalTrajectory:
    """A decoupled run held by its modes: costs and studies read no dense array."""

    @staticmethod
    def assert_cost_of_dense_run(traj, sys_):
        assert traj.modes is not None
        modal = gl.evaluate_cost(traj, sys_)
        dense = gl.evaluate_cost(gl.Trajectory(traj.grid, traj.states, traj.controls),
                                 sys_)
        assert modal.total == pytest.approx(dense.total, rel=1e-12, abs=0.0)
        assert modal.aux == pytest.approx(dense.aux, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(modal.eigen, dense.eigen, rtol=1e-12, atol=0.0)

    def test_cost_of_example_vii(self, vii_problem):
        n, dt = 40, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        traj = gl.simulate(sys_, law, gl.initial_state(n, 7), vii_problem.horizon, dt)
        self.assert_cost_of_dense_run(traj, sys_)

    def test_cost_at_every_truncation_level(self):
        rng = np.random.default_rng(90)
        g, entries = make_rank_kernel(rng, 11, 4)
        p = gl.LqrProblem(0.5, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        assert p.poly_b.degree == 2
        sys_ = gl.build_step_system(entries, p)
        gains = synthesize_gains(p, 1e-3)
        x0 = gl.initial_state(11, 91)
        for level in range(p.d + 1):
            law = feedback_controller(truncate_problem(p, level), gains)
            self.assert_cost_of_dense_run(gl.simulate(sys_, law, x0, 1.0, 1e-3), sys_)

    def test_dense_constructor_unchanged(self):
        grid = np.linspace(0.0, 1.0, 3)
        states = np.arange(6.0).reshape(3, 2)
        traj = gl.Trajectory(grid, states, -states)
        assert traj.modes is None and traj.states is states
        with pytest.raises(ValueError, match="lengths"):
            gl.Trajectory(grid, states[:2], states[:2])
        with pytest.raises(ValueError, match="non-finite"):
            gl.Trajectory(grid, states, np.full((3, 2), np.nan))

    def test_immutable(self, vii_problem):
        n, dt = 8, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = feedback_controller(vii_problem, synthesize_gains(vii_problem, dt))
        traj = gl.simulate(sys_, law, gl.initial_state(n, 8), 1.0, dt)
        states = traj.states  # a rebuilt array is cached, not rebuilt again
        assert traj.states is states
        for name in ("grid", "states", "controls", "modes"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(traj, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(traj, name)
        assert traj.states is states and traj.modes is not None

    def test_pipeline_and_study_build_no_dense_run(self, monkeypatch):
        # the large-network pipeline: an analytic kernel, simulate, evaluate_cost
        kernel = gl.graphon_from_spec({"type": "finite_rank", "pairs": [
            {"lambda": 0.6, "fun": "sin"}, {"lambda": -0.3, "fun": "cos", "freq": 2}]})
        p = gl.LqrProblem(0.8, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, 0.5]),
                          gl.CoeffPoly([1.0]), kernel, 1.0)
        n = 500
        sys_ = gl.build_step_system(gl.sample_step_entries(kernel, n), p)
        x0 = gl.initial_state(n, 92)
        traj = gl.simulate(sys_, feedback_controller(p, synthesize_gains(p, 1e-3)),
                           x0, 1.0, 1e-3)
        gl.evaluate_cost(traj, sys_)
        runs = [traj]
        simulate = sim_module.simulate

        def recording_simulate(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(sim_module, "simulate", recording_simulate)
        gl.truncation_study(sys_, x0, range(p.d + 1), 1e-3)
        assert len(runs) == 1 + p.d + 1
        for run in runs:
            assert run.modes is not None
            assert not {"states", "controls"} & set(vars(run))

    def test_full_rank_study_builds_no_dense_run(self, monkeypatch):
        # a step kernel of full rank n = d decouples exactly: every level runs modal
        rng = np.random.default_rng(93)
        g, entries = make_rank_kernel(rng, 6, 6)
        p = gl.LqrProblem(0.5, gl.CoeffPoly([0.9]), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        assert sys_.residual <= sim_module._DECOUPLING_TOL
        runs = []
        simulate = sim_module.simulate

        def recording_simulate(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(sim_module, "simulate", recording_simulate)
        gl.truncation_study(sys_, gl.initial_state(6, 94), range(p.d + 1), 1e-3)
        assert len(runs) == p.d + 1
        for run in runs:
            assert run.modes is not None
            assert not {"states", "controls"} & set(vars(run))

    def test_stiff_decaying_mode_raises(self):
        # h*|rate| = 4 exceeds RK4's real stability bound: the step factor
        # R(-4) = 5 grows every mode that the exact loop decays
        p = gl.LqrProblem(1.0, gl.CoeffPoly([400.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.sinusoidal_graphon(), 1.0)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 8), p)
        law = feedback_controller(p, synthesize_gains(p, 1e-2))
        with pytest.raises(gl.BlowUpError,
                           match=r"t = 0: h\*\|rate\| = 4(\.\d+)? exceeds the stability "
                                 r"bound 2\.785"):
            gl.simulate(sys_, law, gl.initial_state(8, 0), 1.0, 1e-2)

    def test_blow_up_bounds_the_dense_run(self):
        # a run that passes the bound rebuilds to finite states and controls
        p = gl.LqrProblem(700.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.uniform_graphon(), 1.0)
        sys_ = gl.build_step_system(np.ones((3, 3)), p)
        law = feedback_controller(p, synthesize_gains(p, 1e-3))
        traj = gl.simulate(sys_, law, np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)
        assert np.abs(traj.states).max() > 1e300
        assert np.isfinite(traj.states).all() and np.isfinite(traj.controls).all()


class TestEvaluateCost:
    def test_zero_trajectory_costs_nothing(self):
        p = sinusoidal_problem()
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 8), p)
        grid = np.linspace(0, 1, 11)
        zero = np.zeros((11, 8))
        cost = gl.evaluate_cost(gl.Trajectory(grid, zero, zero), sys_)
        assert cost.total == 0.0 and cost.aux == 0.0
        np.testing.assert_array_equal(cost.eigen, np.zeros(2))

    def test_constant_eigenfunction_state(self):
        # frozen state = first eigenfunction, no control, horizon 1:
        # J = poly_q(1/2)*1 + poly_p0(1/2) = 1/4 + 1/4
        p = sinusoidal_problem()
        n = 40
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        f1 = p.graphon.pairs[0].fun(midpoint_grid(n))
        grid = np.linspace(0, 1, 101)
        states = np.tile(f1, (101, 1))
        cost = gl.evaluate_cost(gl.Trajectory(grid, states, np.zeros_like(states)),
                                sys_)
        assert cost.total == pytest.approx(0.5, abs=1e-12)
        assert cost.eigen[0] == pytest.approx(0.5, abs=1e-12)
        assert cost.aux == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_adds_up(self):
        rng = np.random.default_rng(40)
        g, entries = make_rank_kernel(rng, 9, 3)
        p = gl.LqrProblem(0.2, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 3),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(9, 41)
        gains = synthesize_gains(p, 1e-3)
        traj = gl.simulate(sys_, feedback_controller(p, gains), x0, 1.0, 1e-3)
        cost = gl.evaluate_cost(traj, sys_)
        assert cost.total == pytest.approx(cost.aux + cost.eigen.sum(), abs=1e-8)
        assert cost.aux >= 0.0 and np.all(cost.eigen >= 0.0)


class TestOracleCompare:
    def test_single_node_matches_scalar_theory(self):
        p = scalar_problem(0.6, beta0=0.9, q0=0.8, z0=0.5)
        sys_ = gl.build_step_system(np.zeros((1, 1)), p)
        report = gl.oracle_compare(sys_, np.ones(1), 1e-3)
        assert report.cost_rel_gap <= 1e-10
        assert report.state_gap <= 1e-10
        assert report.p_gap <= 1e-10

    def test_random_low_rank_system(self):
        rng = np.random.default_rng(50)
        g, entries = make_rank_kernel(rng, 6, 2)
        p = gl.LqrProblem(0.3, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        report = gl.oracle_compare(sys_, gl.initial_state(6, 51), 1e-3)
        assert report.cost_rel_gap <= 1e-6
        assert report.p_gap <= 1e-6


@st.composite
def exact_rank_networks(draw):
    """n <= 6 cells, a rank in 0..n (full rank included) and an rng seed."""
    n = draw(st.integers(1, 6))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(exact_rank_networks())
def test_decoupled_synthesis_is_optimal_whenever_low_rank(case):
    # the guard's promise: a low-rank system's decoupled cost is the oracle's,
    # and the reconstructed Riccati operator starts at the terminal weight
    n, rank, seed = case
    rng = np.random.default_rng(seed)
    g, entries = make_rank_kernel(rng, n, rank)
    p = gl.LqrProblem(float(rng.uniform(-1.0, 2.0)), input_poly(rng, 2),
                      admissible_poly(rng, g.lambdas, 2),
                      admissible_poly(rng, g.lambdas, 2), g, 1.0)
    sys_ = gl.build_step_system(entries, p)
    assert sys_.residual <= sim_module._DECOUPLING_TOL
    report = gl.oracle_compare(sys_, gl.initial_state(n, seed), 1e-3)
    assert report.j_decoupled <= report.j_oracle * (1.0 + 1e-5)
    p_start = gl.reconstruct_P(synthesize_gains(p, 1e-3), g, 0.0, n)
    np.testing.assert_allclose(p_start, sys_.p0_mat, rtol=0.0, atol=1e-12)


class TestTruncationStudy:
    def test_full_level_recovers_optimal_cost_exactly(self):
        p = sinusoidal_problem()
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 20), p)
        rows = gl.truncation_study(sys_, gl.initial_state(20, 60), [2], 1e-3)
        assert rows[0].j_truncated == rows[0].j_optimal

    def test_costs_dominate_optimum_and_ratios_match(self):
        p = sinusoidal_problem(poly_b=(1.0,))
        n = 40
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 61)
        rows = gl.truncation_study(sys_, x0, [0, 1, 2], 1e-3)
        for row in rows:
            assert row.j_truncated >= row.j_optimal - 1e-8
            for h in range(row.level, p.d):
                if np.isfinite(row.measured_ratio[h]):
                    assert row.measured_ratio[h] == pytest.approx(
                        row.predicted_ratio[h], abs=1e-4)
        # kept directions have no ratio entries
        assert np.isnan(rows[2].measured_ratio).all()

    def test_each_prediction_is_ratio_prediction_once(self):
        rng = np.random.default_rng(63)
        g, entries = make_rank_kernel(rng, 12, 3)
        p = gl.LqrProblem(0.6, gl.CoeffPoly([0.8]), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        rows = gl.truncation_study(sys_, gl.initial_state(12, 64), range(p.d + 1),
                                   1e-3)
        for row in rows:
            assert np.isnan(row.predicted_ratio[:row.level]).all()
            for h in range(row.level, p.d):
                assert row.predicted_ratio[h] == gl.ratio_prediction(p, h, 1e-3)

    def test_one_synthesis_and_one_run_per_level(self, monkeypatch):
        rng = np.random.default_rng(65)
        g, entries = make_rank_kernel(rng, 10, 3)
        p = gl.LqrProblem(0.4, gl.CoeffPoly([0.9]), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        solves, runs = [], []

        def recording_solve(*args):
            solves.append(args)
            return riccati_explicit(*args)

        def recording_simulate(*args):
            runs.append(args[1].problem.d)
            return simulate(*args)

        riccati_explicit, simulate = lqr_module.riccati_explicit, sim_module.simulate
        for module in (lqr_module, riccati_module):
            monkeypatch.setattr(module, "riccati_explicit", recording_solve)
        monkeypatch.setattr(sim_module, "simulate", recording_simulate)
        rows = gl.truncation_study(sys_, gl.initial_state(10, 66),
                                   [*range(p.d + 1), 1], 1e-3)
        assert len(solves) == 1
        assert sorted(runs) == list(range(p.d + 1))  # level d is the optimal run
        assert [row.level for row in rows] == [0, 1, 2, 3, 1]
        assert rows[-1].j_optimal == rows[-2].j_truncated

    def test_every_run_is_modal(self, monkeypatch):
        # every truncated law runs on the modal engine of the system's own problem
        rng = np.random.default_rng(67)
        g, entries = make_rank_kernel(rng, 9, 3)
        p = gl.LqrProblem(0.4, input_poly(rng, 1), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        runs = []
        simulate = sim_module.simulate

        def recording_simulate(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(sim_module, "simulate", recording_simulate)
        gl.truncation_study(sys_, gl.initial_state(9, 68), range(p.d + 1), 1e-3)
        assert len(runs) == p.d + 1 and all(run.modes is not None for run in runs)

    def test_ratios_nan_without_constant_input_poly(self):
        p = sinusoidal_problem()  # degree-1 input polynomial
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 16), p)
        rows = gl.truncation_study(sys_, gl.initial_state(16, 62), [0], 1e-3)
        assert np.isnan(rows[0].predicted_ratio).all()


class TestConsistency:
    def test_step_refinement_approaches_reference(self):
        # sample the same kernel and initial profile at growing resolution;
        # the cost gap to a fine reference must fall at least like 1/n
        p = sinusoidal_problem()
        profile = lambda gm: gm + 0.3 * np.sin(6 * np.pi * gm)

        def cost_at(n):
            sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
            x0 = profile(midpoint_grid(n))
            gains = synthesize_gains(p, 1e-3)
            traj = gl.simulate(sys_, feedback_controller(p, gains), x0, 1.0, 1e-3)
            return gl.evaluate_cost(traj, sys_).total

        ref = cost_at(320)
        gaps = np.array([abs(cost_at(n) - ref) for n in (20, 40, 80)])
        assert np.all(np.diff(gaps) < 0.0)
        assert gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2

    def test_time_step_convergence_pattern(self):
        # successive J differences shrink by a stable factor: ~4 from the
        # trapezoid cost quadrature on top of the 4th-order trajectory
        p = sinusoidal_problem()
        n = 16
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 70)

        def cost_at(dt):
            gains = synthesize_gains(p, dt)
            traj = gl.simulate(sys_, feedback_controller(p, gains), x0, 1.0, dt)
            return gl.evaluate_cost(traj, sys_).total

        js = [cost_at(dt) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]
        diffs = np.abs(np.diff(js))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all(ratios >= 3.5) and np.all(ratios <= 16.5)

    def test_trajectory_is_fourth_order(self):
        # with the gain curves pinned fine, the state integrator itself
        # converges at 4th order
        p = sinusoidal_problem()
        n = 12
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 71)
        gains = synthesize_gains(p, 1e-5)
        ctrl = feedback_controller(p, gains)

        def terminal(dt):
            return gl.simulate(sys_, ctrl, x0, 1.0, dt).states[-1]

        ref = terminal(1e-3)
        e1 = np.abs(terminal(4e-3) - ref).max()
        e2 = np.abs(terminal(2e-3) - ref).max()
        assert e1 / e2 >= 12.0
