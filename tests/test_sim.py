import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphon_lqr as gl
import graphon_lqr.lqr as lqr_module
import graphon_lqr.riccati as riccati_module
import graphon_lqr.sim as sim_module
from graphon_lqr.graphon import midpoint_grid
from graphon_lqr.lqr import truncate_problem
from graphon_lqr.poly import apply_poly_matrix
from graphon_lqr.sim import ModalRun

from conftest import (admissible_poly, input_poly, make_rank_kernel, record_calls,
                      sinusoidal_problem)
from test_graphon import SAMPLED_KERNELS


def scalar_problem(alpha0, beta0=1.0, q0=1.0, z0=1.0, horizon=1.0):
    g = gl.sinusoidal_graphon().truncate(0)
    return gl.LqrProblem(alpha0, gl.CoeffPoly([beta0]), gl.CoeffPoly([q0]),
                         gl.CoeffPoly([z0]), g, horizon)


def scaled_cosine(s):
    """``s cos 2 pi (x - y)`` on 40 cells and the problem of its own
    decomposition: exactly rank 2 at any scale s, both eigenvalues s/2."""
    x = (np.arange(40) + 0.5) / 40
    entries = s * np.cos(2 * np.pi * (x[:, None] - x))
    kernel = gl.StepGraphon(entries).spectral_decompose()
    one = gl.CoeffPoly([1.0])
    return entries, gl.LqrProblem(1.0, one, one, one, kernel, 0.5)


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
        network = gl.sample_step_entries(p.graphon, 40)
        sys_ = gl.build_step_system(network, p)
        mus = np.sort(np.linalg.eigvalsh(network.entries / 40))[::-1]
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
        # three times the uniform kernel's samples: the decoupling residual
        # |(entries/n) F' - F' diag(lams)| is 3 - 1 = 2
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.uniform_graphon(), 1.0)
        with pytest.raises(ValueError, match="decoupling residual 2.000e[+]00"):
            gl.build_step_system(np.full((4, 4), 3.0), p)

    @pytest.mark.parametrize("s", [3e5, 1e6])
    def test_decoupling_bound_scales_with_the_kernel(self, s):
        # the residual of an exact network is a rounding of its scale, here
        # above an absolute 1e-10 and below 1e-10 times the largest |lambda|
        entries, p = scaled_cosine(s)
        assert 1e-10 < gl.build_step_system(entries, p).residual <= 1e-10 * s / 2

    @pytest.mark.parametrize("s, bound", [(1.0, "5e-11"), (1e6, "5e-05")])
    def test_moved_pair_rejected_at_any_scale(self, s, bound):
        # one symmetric pair moved by 1e-6 of the scale leaves a residual of
        # 3.5e-8 of it, far above the bound 1e-10*max|lambda| at either scale
        entries, p = scaled_cosine(s)
        entries[3, 17] = entries[17, 3] = entries[3, 17] + 1e-6 * s
        with pytest.raises(ValueError, match=f"residual .* exceeds {bound}$"):
            gl.build_step_system(entries, p)

    def test_decoupling_bound_reads_the_problem_kernel(self):
        # the bound scales with the problem's kernel, not with the network, so
        # a network far larger than its kernel does not raise its own bound
        entries, p = scaled_cosine(1.0)
        with pytest.raises(ValueError, match="exceeds 5e-11$"):
            gl.build_step_system(1e6 * entries, p)

    def test_small_coupling_rejected_against_rank_zero(self):
        # the sinusoidal samples scaled by 1e-10 leave a residual of 8.3e-12,
        # no rounding of the zero coupling a rank-0 problem describes
        g = gl.sinusoidal_graphon()
        one = gl.CoeffPoly([1.0])
        p = gl.LqrProblem(1.0, one, one, one, g.truncate(0), 1.0)
        entries = gl.sample_step_entries(g, 12).entries / 1e10
        with pytest.raises(ValueError, match="d = 0 .* residual 8.333e-12 exceeds"):
            gl.build_step_system(gl.StepGraphon(entries), p)
        assert gl.build_step_system(np.zeros((12, 12)), p).residual == 0.0

    @pytest.mark.parametrize("n", [20, 21])
    def test_kernel_samples_beyond_one_accepted(self, n):
        # 0.7*2cos(2 pi x)cos(2 pi y) + 0.2 peaks at 1.6 on the diagonal; the
        # kernel's own samples are a valid network whatever their magnitude
        root2 = np.sqrt(2.0)
        g = gl.FiniteRankGraphon([
            gl.EigenPair(0.7, lambda x: root2 * np.cos(2 * np.pi * np.asarray(x, float))),
            gl.EigenPair(0.2, lambda x: np.ones_like(np.asarray(x, float)))])
        p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), g, 1.0)
        network = gl.sample_step_entries(g, n)
        assert np.abs(network.entries).max() > 1.5
        sys_ = gl.build_step_system(network, p)
        law = gl.FeedbackLaw(p)
        traj = gl.simulate(sys_, law, gl.initial_state(n, 1), 1.0, 1e-2)
        assert isinstance(traj, ModalRun)

    @pytest.mark.parametrize("kernel", ["zero", "uniform"])
    def test_residual_sees_last_partial_row_block(self, kernel):
        n, delta = 70, 0.375
        if kernel == "zero":
            g, entries = gl.uniform_graphon().truncate(0), np.zeros((n, n))
        else:
            g, entries = gl.uniform_graphon(), np.ones((n, n))
        f = g.eigfun_values(midpoint_grid(n))
        assert max(sim_module.decoupling_residual(entries, f, g.lambdas)) <= 1e-15
        entries[n - 1, 3] += delta
        residual = max(sim_module.decoupling_residual(entries, f, g.lambdas))
        if kernel == "zero":
            assert residual == delta / n
        else:
            assert residual == pytest.approx(delta / n, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(SAMPLED_KERNELS) + ["matrix"])
    @pytest.mark.parametrize("n", [1, 17, 64])
    def test_drift_is_exactly_symmetric(self, kind, n, monkeypatch):
        # the drift adds entries/n to alpha0*I as it is: a kernel's samples and
        # a validated matrix are both exactly symmetric; the decoupling check
        # is lifted, as it is not what this test is about
        monkeypatch.setattr(sim_module, "_DECOUPLING_TOL", np.inf)
        one = gl.CoeffPoly([1.0])
        if kind == "matrix":
            g = gl.uniform_graphon()
            r = np.random.default_rng(n).standard_normal((n, n))
            network = gl.StepGraphon(r + r.T)
        else:
            g = SAMPLED_KERNELS[kind]()
            network = gl.sample_step_entries(g, n)
        a = gl.build_step_system(network, gl.LqrProblem(0.7, one, one, one, g, 1.0)).a_mat
        assert np.array_equal(a, a.T)
        assert np.array_equal(a, 0.7 * np.eye(n) + network.entries / n)

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
            network = gl.sample_step_entries(vii_problem.graphon, n)
            with pytest.raises(ValueError, match=(
                    rf"the {n}-cell network does not decouple along the d = 2 kernel "
                    r"eigenfunctions: decoupling residual \d\.\d{3}e[+-]\d{2} "
                    r"exceeds 1e-10")):
                gl.build_step_system(network, vii_problem)

    @pytest.mark.parametrize("kind", sorted(SAMPLED_KERNELS))
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 1001])
    def test_sampled_network_residual_in_factor_form(self, kind, n, monkeypatch):
        # a kernel's own samples are checked from its cell table alone; the
        # dense residual of the formed matrix gives the same verdict and value
        g = SAMPLED_KERNELS[kind]()
        one = gl.CoeffPoly([1.0])
        p = gl.LqrProblem(0.5, one, one, one, g, 1.0)
        network = gl.sample_step_entries(g, n)
        dense = max(sim_module.decoupling_residual(network.entries, g.cells(n), g.lambdas))
        monkeypatch.setattr(sim_module, "decoupling_residual", None)
        try:
            residual = gl.build_step_system(network, p).residual
        except ValueError as err:
            assert dense > 1e-10
            assert f"decoupling residual {dense:.3e} exceeds" in str(err)
        else:
            assert dense <= 1e-10
            assert abs(residual - dense) <= 1e-15

    def test_million_cells_run_matrix_free(self, vii_problem, monkeypatch):
        # sampling, the decoupling check, the run and its cost read the cell
        # table alone: forming the coupling matrix or a polynomial of it raises
        n, dt = 10 ** 6, 1e-2

        def fail(*args):
            raise AssertionError("an n x n array was formed")

        monkeypatch.setattr(gl.StepGraphon, "entries", property(fail))
        monkeypatch.setattr(sim_module, "apply_poly_matrix", fail)
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        traj = gl.simulate(sys_, law, gl.initial_state(n, 0), vii_problem.horizon, dt)
        assert isinstance(traj, ModalRun)
        assert np.isfinite(gl.evaluate_cost(traj, sys_).total)


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
        with pytest.raises(gl.BlowUpError, match="t ="):
            gl.simulate(sys_, lambda t, x: np.zeros(1), np.ones(1), 1.0, 1e-3)

    def test_generic_loop_is_classic_rk4(self, vii_problem):
        # the generic loop against RK4 written out here, bit for bit, with the
        # controller called 4K + 1 times
        n, dt, horizon = 6, 1e-2, vii_problem.horizon
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
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
        law = gl.FeedbackLaw(vii_problem)
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


def oracle_states(sys_, x0, dt):
    """The exact matrix-Riccati oracle's optimal states on the run's grid."""
    grid = gl.uniform_grid(sys_.problem.horizon, dt)
    return riccati_module._oracle_loop(sys_.a_mat, sys_.b_mat, sys_.q_mat, sys_.p0_mat,
                                       np.asarray(x0, dtype=float), grid, [0])[0]


class TestModalEngine:
    """The closed-form run against the oracle, its law and the generic loop."""

    def assert_closed_form(self, sys_, level, x0, dt):
        """The run of the law of ``level``: its controls are the law's output
        at its states, the RK4 generic loop converges to it at fourth order
        (the law reads exact gains at the stage times; ``dt`` is coarse
        enough to keep the errors above rounding), and the optimal law's
        states are the exact oracle's."""
        p = sys_.problem
        law = gl.FeedbackLaw(truncate_problem(p, level))
        errors = []
        for step in (dt, dt / 2):
            modal = gl.simulate(sys_, law, x0, p.horizon, step)
            assert isinstance(modal, ModalRun)
            outputs = np.array([law(t, x) for t, x in zip(modal.grid, modal.states)])
            assert rel_gap(modal.controls, outputs) <= 1e-12
            loop = gl.simulate(sys_, generic(law), x0, p.horizon, step)
            errors.append(rel_gap(loop.states, modal.states))
            if step == dt:
                first = modal
        assert errors[0] / errors[1] >= 2 ** 3.5
        if level == p.d:
            assert rel_gap(first.states, oracle_states(sys_, x0, dt)) <= 1e-12
        return first

    def test_sampled_sinusoidal_matches_generic_loop(self, vii_problem):
        n, dt = 40, 2e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        assert sys_.residual <= sim_module._DECOUPLING_TOL
        self.assert_closed_form(sys_, vii_problem.d, gl.initial_state(n, 6), dt)

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
        x0 = gl.initial_state(n, seed)
        traj = self.assert_closed_form(sys_, p.d, x0, 2e-2)
        # the low-rank cost against the value x0'P(T)x0/n of the dense quadratic
        # forms' matrix Riccati solution
        a_mat = p.alpha0 * np.eye(n) + entries / n
        b_mat, q_mat, p0_mat = (apply_poly_matrix(poly, entries / n)
                                for poly in (p.poly_b, p.poly_q, p.poly_p0))
        p_end = gl.solve_matrix_riccati(a_mat, b_mat, q_mat, p0_mat, 1.0, 1e-3)[1][-1]
        value = x0 @ p_end @ x0 / n
        assert gl.evaluate_cost(traj, sys_).total == pytest.approx(value, rel=1e-12)

    def test_full_rank_residual_stays_empty(self):
        # n = d leaves no residual; q(0) = z(0) = 0 leaves the residual gain at
        # zero, and a drift of 40 would blow its rounding up to the state's size
        m = np.array([[0.3, 0.2, -0.1], [0.2, -0.5, 0.4], [-0.1, 0.4, 0.6]])
        g = gl.StepGraphon(m).spectral_decompose()
        p = gl.LqrProblem(40.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0, 0.0, 1.0]),
                          gl.CoeffPoly([0.0, 0.0, 1.0]), g, 1.0)
        sys_ = gl.build_step_system(m, p)
        assert p.d == 3 and sys_.residual <= sim_module._DECOUPLING_TOL
        traj = self.assert_closed_form(sys_, p.d, gl.initial_state(3, 1), 2e-2)
        assert gl.evaluate_cost(traj, sys_).aux == 0.0

    def test_every_truncation_level(self, vii_problem):
        n, dt = 24, 2e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 8)
        for level in range(vii_problem.d + 1):
            self.assert_closed_form(sys_, level, x0, dt)

    def test_law_of_another_kernel_object_runs_generic_loop(self, vii_problem):
        # an equal kernel built anew has other eigenpair objects: the closed
        # form trusts only the system's own pairs, and the twin's law runs the
        # generic loop exactly as the own law behind a plain callable does
        n, dt = 16, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 12)
        own = gl.FeedbackLaw(vii_problem)
        twin = sinusoidal_problem()
        other = gl.FeedbackLaw(twin)
        modal = gl.simulate(sys_, own, x0, 1.0, dt)
        loop = gl.simulate(sys_, other, x0, 1.0, dt)
        assert isinstance(modal, ModalRun) and isinstance(loop, gl.Trajectory)
        plain = gl.simulate(sys_, generic(own), x0, 1.0, dt)
        assert rel_gap(loop.states, plain.states) <= 1e-12
        assert rel_gap(loop.controls, plain.controls) <= 1e-12
        assert rel_gap(modal.states, oracle_states(sys_, x0, dt)) <= 1e-12

    def test_other_gains_never_run_in_closed_form(self, vii_problem):
        # a controller with other gains is not a law of the problem: the law of
        # each level with its gains scaled by 1.1, which scales its output by
        # 1.1, is a plain callable; it runs the generic loop and costs more
        # than the optimum
        n, dt = 12, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 14)
        optimal = gl.evaluate_cost(gl.simulate(sys_, gl.FeedbackLaw(vii_problem), x0,
                                               vii_problem.horizon, dt), sys_).total
        for level in (vii_problem.d, 0):
            law = gl.FeedbackLaw(truncate_problem(vii_problem, level))
            traj = gl.simulate(sys_, lambda t, x: 1.1 * law(t, x), x0,
                               vii_problem.horizon, dt)
            assert isinstance(traj, gl.Trajectory)
            assert gl.evaluate_cost(traj, sys_).total > optimal

    def test_one_law_runs_in_closed_form_at_any_dt(self, vii_problem):
        # the law evaluates its gains exactly at any time, so one law object
        # runs in closed form on every grid, down to the truncation study's
        # two nodes {0, T}, at every level; its exact cost reads only the
        # run's two ends, so its parts do not depend on the grid in any bit
        n = 12
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 15)
        for level in (vii_problem.d, 0):
            law = gl.FeedbackLaw(truncate_problem(vii_problem, level))
            runs = [gl.simulate(sys_, law, x0, vii_problem.horizon, dt)
                    for dt in (1e-2, 3e-3, 1e-3, vii_problem.horizon)]
            assert all(isinstance(run, ModalRun) and run.law is law for run in runs)
            assert runs[-1].grid.tolist() == [0.0, vii_problem.horizon]
            parts = [np.append(cost.aux, cost.eigen)
                     for cost in (gl.evaluate_cost(run, sys_) for run in runs)]
            assert all(np.array_equal(part, parts[0]) for part in parts)

    @pytest.mark.parametrize("engine", ["modal", "generic"])
    def test_law_horizon_bounds_the_run(self, vii_problem, engine):
        n, dt = 12, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        controller = law if engine == "modal" else generic(law)
        x0 = gl.initial_state(n, 13)
        with pytest.raises(ValueError, match="outside the horizon"):
            gl.simulate(sys_, controller, x0, 2.0, dt)
        traj = gl.simulate(sys_, controller, x0, 0.5, dt)
        assert isinstance(traj, ModalRun) == (engine == "modal")
        assert traj.grid[-1] == 0.5 and np.isfinite(traj.states).all()

    def test_decoupled_pipeline_builds_no_dense_matrix(self, vii_problem):
        n, dt = 300, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        traj = gl.simulate(sys_, law, gl.initial_state(n, 10), vii_problem.horizon, dt)
        gl.evaluate_cost(traj, sys_)
        dense = {"a_mat", "b_mat", "q_mat", "p0_mat"} & set(vars(sys_))
        assert not dense, f"materialized {sorted(dense)}"
        assert not any(isinstance(v, np.ndarray) and v.shape == (n, n)
                       for name, v in vars(sys_).items() if name != "entries")

    def test_propagation_requires_matching_initial_state(self, vii_problem):
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, 8),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        with pytest.raises(ValueError, match="initial state"):
            gl.simulate(sys_, law, np.ones(9), 1.0, 1e-2)

    def test_blow_up_reports_time(self):
        # q = p0 = 0 leaves the gains at zero and the unstable modes unchecked;
        # the state overflows near t = 0.79, the generic loop's stage sums a
        # few steps earlier
        p = gl.LqrProblem(900.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.uniform_graphon(), 1.0)
        sys_ = gl.build_step_system(np.ones((3, 3)), p)
        law = gl.FeedbackLaw(p)
        with pytest.raises(gl.BlowUpError, match="t = 0.7"):
            gl.simulate(sys_, law, np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(gl.BlowUpError, match="t = 0.7"):
            gl.simulate(sys_, generic(law), np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)


class TestModalTrajectory:
    """A decoupled run held by its modes: costs and studies read no dense array."""

    @staticmethod
    def dense_cost_error(traj, sys_):
        """How far the trapezoid cost of the rebuilt run lies from the exact one.

        The errors of the total, the auxiliary part and each eigen part, in
        that order.
        """
        assert isinstance(traj, ModalRun)
        modal = gl.evaluate_cost(traj, sys_)
        dense = gl.evaluate_cost(gl.Trajectory(traj.grid, traj.states, traj.controls),
                                 sys_)
        assert modal.total == pytest.approx(modal.aux + modal.eigen.sum(), rel=1e-14)
        return np.abs(np.append([dense.total, dense.aux], dense.eigen)
                      - np.append([modal.total, modal.aux], modal.eigen))

    @pytest.mark.parametrize("case", ["optimal", "level-0", "full-rank"])
    def test_controls_are_the_law_at_the_states(self, vii_problem, case):
        # a closed-form run keeps the law it ran and reads its controls from
        # it, one call over the grid with the stack of states; that call
        # agrees with the law at each node in turn
        if case == "full-rank":  # n = d: no residual
            g, entries = make_rank_kernel(np.random.default_rng(12), 6, 6)
            p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([1.0]),
                              gl.CoeffPoly([1.0]), g, 1.0)
            sys_ = gl.build_step_system(entries, p)
        else:
            p = vii_problem
            sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 40), p)
        law = gl.FeedbackLaw(truncate_problem(p, 0) if case == "level-0" else p)
        traj = gl.simulate(sys_, law, gl.initial_state(sys_.n, 5), 1.0, 1e-2)
        assert traj.law is law
        np.testing.assert_array_equal(traj.controls, law(traj.grid, traj.states))
        nodes = np.array([law(t, x) for t, x in zip(traj.grid, traj.states)])
        assert np.abs(traj.controls - nodes).max() <= 1e-15 * np.abs(nodes).max()

    def test_cost_of_example_vii(self, vii_problem):
        # the value x0'P(T)x0/n, mode by mode Pi_m(T) times the initial energy
        n, dt = 40, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        x0 = gl.initial_state(n, 7)
        cost = gl.evaluate_cost(gl.simulate(sys_, law, x0, vii_problem.horizon, dt), sys_)
        pi_end = gl.riccati_explicit(*vii_problem.mode_params.T, [0.0, 1.0])[-1]
        coords, resid = vii_problem.graphon.project(x0)
        parts = pi_end * np.append(resid @ resid / n, coords ** 2)
        assert cost.aux == pytest.approx(parts[0], rel=1e-12, abs=0.0)
        np.testing.assert_allclose(cost.eigen, parts[1:], rtol=1e-12, atol=0.0)
        report = gl.oracle_compare(sys_, x0, dt)
        assert cost.total == report.j_decoupled
        assert cost.total == pytest.approx(report.j_oracle, rel=1e-12, abs=0.0)
        assert cost.total == pytest.approx(3.2553731618427, rel=1e-12, abs=0.0)

    def test_cost_at_every_truncation_level(self):
        rng = np.random.default_rng(90)
        g, entries = make_rank_kernel(rng, 11, 4)
        p = gl.LqrProblem(0.5, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        assert p.poly_b.degree == 2
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(11, 91)
        # the trapezoid cost of the exact states converges to the exact cost
        # at second order at every level, in total and mode by mode, so each
        # dropped direction's inflation is held to its own dense run
        for level in range(p.d + 1):
            errors = []
            for dt in (1e-3, 5e-4):
                law = gl.FeedbackLaw(truncate_problem(p, level))
                errors.append(self.dense_cost_error(gl.simulate(sys_, law, x0, 1.0, dt),
                                                    sys_))
            ratios = errors[0] / errors[1]
            assert np.all((3.5 <= ratios) & (ratios <= 4.5)), (level, ratios)

    def test_cost_of_a_run_shorter_than_its_law(self, vii_problem):
        # a run to 0.5 of laws over the horizon 1: no mode's gain is the
        # optimum of the shorter run, so every mode adds its integral, and
        # the trapezoid cost of the exact states converges to the exact cost
        # at second order, in total and mode by mode
        n = 12
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 12)
        for level in (vii_problem.d, 0):
            law = gl.FeedbackLaw(truncate_problem(vii_problem, level))
            errors = [self.dense_cost_error(gl.simulate(sys_, law, x0, 0.5, dt), sys_)
                      for dt in (1e-3, 5e-4)]
            ratios = errors[0] / errors[1]
            assert np.all((3.99 <= ratios) & (ratios <= 4.01)), (level, ratios)

    def test_dense_constructor_unchanged(self):
        grid = np.linspace(0.0, 1.0, 3)
        states = np.arange(6.0).reshape(3, 2)
        traj = gl.Trajectory(grid, states, -states)
        assert traj.states is states
        with pytest.raises(ValueError, match="lengths"):
            gl.Trajectory(grid, states[:2], states[:2])
        # controls of another width would be costed on their own cell table
        with pytest.raises(ValueError, match=r"states' shape \(3, 2\), got \(3, 1\)"):
            gl.Trajectory(grid, states, -states[:, :1])
        with pytest.raises(ValueError, match="non-finite"):
            gl.Trajectory(grid, states, np.full((3, 2), np.nan))

    @pytest.mark.parametrize("grid", [[1.0, 0.5, 0.0], [0.0, np.nan, 1.0], [0.0, 0.5, np.inf],
                                      [0.0, 0.5, 0.5], [[0.0, 0.5, 1.0]]],
                             ids=["reversed", "nan", "inf", "repeated", "2-d"])
    def test_grid_must_be_finite_and_increasing(self, grid):
        # unit weights and a unit state and control: the run costs 2 per unit
        # time plus 1 at its end, and its reversed grid once read a total of
        # -1.0, a NaN node a cost that is not finite
        p = gl.LqrProblem(2.0, gl.CoeffPoly([1.0, 0.5]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.sinusoidal_graphon(), 1.0)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 4), p)
        x = np.ones((3, 4))
        forward = gl.Trajectory(np.array([0.0, 0.5, 1.0]), x, x)
        assert gl.evaluate_cost(forward, sys_).total == pytest.approx(3.0, rel=1e-14)
        with pytest.raises(ValueError, match="1-D, finite and strictly increasing"):
            gl.Trajectory(np.array(grid), x, x)

    def test_immutable(self, vii_problem):
        n, dt = 8, 1e-2
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        law = gl.FeedbackLaw(vii_problem)
        traj = gl.simulate(sys_, law, gl.initial_state(n, 8), 1.0, dt)
        states = traj.states  # a rebuilt array is cached, not rebuilt again
        assert traj.states is states
        dense = gl.Trajectory(traj.grid, states, traj.controls)
        names = ("grid", "states", "controls", "growth", "resid", "coords", "problem", "law")
        for run, fields in ((traj, names), (dense, names[:3])):
            for name in fields:
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"cannot assign to field '{name}'"):
                    setattr(run, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError,
                                   match=f"cannot delete field '{name}'"):
                    delattr(run, name)
        assert traj.states is states and isinstance(traj, ModalRun)

    def test_pipeline_and_study_build_no_dense_run(self, monkeypatch):
        # the large-network pipeline: an analytic kernel, simulate, evaluate_cost
        kernel = gl.graphon_from_spec({"type": "finite_rank", "pairs": [
            {"lambda": 0.6, "fun": "sin"}, {"lambda": -0.3, "fun": "cos", "freq": 2}]})
        p = gl.LqrProblem(0.8, gl.CoeffPoly([1.0]), gl.CoeffPoly([1.0, 0.5]),
                          gl.CoeffPoly([1.0]), kernel, 1.0)
        n = 500
        sys_ = gl.build_step_system(gl.sample_step_entries(kernel, n), p)
        x0 = gl.initial_state(n, 92)
        traj = gl.simulate(sys_, gl.FeedbackLaw(p), x0, 1.0, 1e-3)
        gl.evaluate_cost(traj, sys_)
        runs = [traj]
        simulate = sim_module.simulate

        def recording_simulate(*args):
            runs.append(simulate(*args))
            return runs[-1]

        monkeypatch.setattr(sim_module, "simulate", recording_simulate)
        gl.truncation_study(sys_, x0, range(p.d + 1))
        assert len(runs) == 1 + 2  # the study's optimal and level-0 runs
        for run in runs:
            assert isinstance(run, ModalRun)
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
        gl.truncation_study(sys_, gl.initial_state(6, 94), range(p.d + 1))
        assert len(runs) == 2
        for run in runs:
            assert isinstance(run, ModalRun)
            assert not {"states", "controls"} & set(vars(run))

    @pytest.mark.parametrize("b", [400.0, 200.0], ids=["b400", "b200"])
    def test_stiff_decaying_mode_runs_exactly(self, b):
        # every mode decays at a rate near -b^2 Pi: at dt = 1e-2, h*|rate| reaches
        # 4 (b = 400) or 400 within the last step (b = 200), past RK4's
        # stability bound; the closed form takes no steps, so the run is the
        # oracle's and its cost the value x0'P(T)x0/n
        p = gl.LqrProblem(1.0, gl.CoeffPoly([b]), gl.CoeffPoly([1.0]),
                          gl.CoeffPoly([1.0]), gl.sinusoidal_graphon(), 1.0)
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 8), p)
        law = gl.FeedbackLaw(p)
        x0 = gl.initial_state(8, 0)
        traj = gl.simulate(sys_, law, x0, 1.0, 1e-2)
        assert rel_gap(traj.states, oracle_states(sys_, x0, 1e-2)) <= 1e-12
        report = gl.oracle_compare(sys_, x0, 1e-2)
        assert gl.evaluate_cost(traj, sys_).total == report.j_decoupled
        assert report.cost_rel_gap <= 1e-12

    def test_blow_up_bounds_the_dense_run(self):
        # a run that passes the bound rebuilds to finite states and controls
        p = gl.LqrProblem(700.0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0]),
                          gl.CoeffPoly([0.0]), gl.uniform_graphon(), 1.0)
        sys_ = gl.build_step_system(np.ones((3, 3)), p)
        law = gl.FeedbackLaw(p)
        traj = gl.simulate(sys_, law, np.array([1.0, -2.0, 0.5]), 1.0, 1e-3)
        assert np.abs(traj.states).max() > 1e300
        assert np.isfinite(traj.states).all() and np.isfinite(traj.controls).all()

    def test_blow_up_bound_covers_the_law(self):
        # zero gains on 1000 cells: at alpha0 = 704 the states stay below
        # 1e306, but the law's sum x F' would overflow and meet a zero gain
        # (a NaN control), so the bound, which covers the law, raises
        x0 = np.full(1000, 3.0)
        for alpha0, blows_up in ((700.0, False), (704.0, True)):
            p = gl.LqrProblem(alpha0, gl.CoeffPoly([1.0]), gl.CoeffPoly([0.0]),
                              gl.CoeffPoly([0.0]), gl.uniform_graphon(), 1.0)
            sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 1000), p)
            law = gl.FeedbackLaw(p)
            if blows_up:
                with pytest.raises(gl.BlowUpError, match="t = 0.99"):
                    gl.simulate(sys_, law, x0, 1.0, 1e-3)
                continue
            traj = gl.simulate(sys_, law, x0, 1.0, 1e-3)
            assert np.abs(traj.states).max() > 1e304
            assert np.isfinite(traj.controls).all()


@pytest.mark.parametrize("beta0", [0.0, 1e-9, 1e-6, 1e-3])
def test_small_input_gain_dropped_direction(beta0):
    # a direction the level-0 law drops grows by exp(alpha_l t - b_l beta0
    # integral_{T-t}^T L) and costs the completion-of-squares inflation
    # integral ((b_l M_l - beta0 L)(T - t) g_l(t))^2 on top of its value; both
    # against scipy's quad of the closed-form integrands, however small beta0
    from scipy.integrate import quad

    p = gl.LqrProblem(1.0, gl.CoeffPoly([beta0, 1.0]), gl.CoeffPoly([1.0]),
                      gl.CoeffPoly([1.0]), gl.sinusoidal_graphon(), 1.0)
    sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 8), p)
    law = gl.FeedbackLaw(truncate_problem(p, 0))
    traj = gl.simulate(sys_, law, gl.initial_state(8, 2), 1.0, 1e-2)
    alpha, b, q, z = p.mode_params.T

    def pi(m, tau):
        return float(gl.riccati_explicit(alpha[m], b[m], q[m], z[m], [tau])[0])

    def growth(t):
        pushed = quad(lambda tau: pi(0, tau), 1.0 - t, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        return np.exp(alpha[1] * t - b[1] * b[0] * pushed)

    for k in (10, 50, 100):
        assert traj.growth[k, 1] == pytest.approx(growth(traj.grid[k]), rel=1e-10)
    inflation = sim_module._unit_costs(traj)[1] - pi(1, 1.0)
    expect = quad(lambda t: ((b[1] * pi(1, 1.0 - t) - b[0] * pi(0, 1.0 - t))
                             * growth(t)) ** 2, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    assert inflation == pytest.approx(expect, rel=1e-10)


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
        traj = gl.simulate(sys_, gl.FeedbackLaw(p), x0, 1.0, 1e-3)
        cost = gl.evaluate_cost(traj, sys_)
        assert cost.total == pytest.approx(cost.aux + cost.eigen.sum(), abs=1e-8)
        assert cost.aux >= 0.0 and np.all(cost.eigen >= 0.0)

    def test_overflowing_cost_raises(self, vii_problem):
        # the run from x0 = 1e200 stays finite, but its mode energies overflow;
        # either form of the run raises, where its cost once read inf
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, 8),
                                    vii_problem)
        traj = gl.simulate(sys_, gl.FeedbackLaw(vii_problem), np.full(8, 1e200),
                           vii_problem.horizon, 1e-2)
        for run in (traj, gl.Trajectory(traj.grid, traj.states, traj.controls)):
            with pytest.raises(gl.BlowUpError, match="cost is not finite"):
                gl.evaluate_cost(run, sys_)

    def test_run_of_another_network_size_rejected(self, vii_problem):
        # a closed-form run on 20 cells costs its value 1.35194261336798 (its
        # RK4 run costs 1.35216334662705); a run of either form is held to the
        # size of the system that costs it
        dt = 1e-2
        law = gl.FeedbackLaw(vii_problem)
        small, large = (gl.build_step_system(
            gl.sample_step_entries(vii_problem.graphon, n), vii_problem) for n in (20, 40))
        traj = gl.simulate(small, law, gl.initial_state(20, 1), vii_problem.horizon, dt)
        assert gl.evaluate_cost(traj, small).total == pytest.approx(1.3519426133680, abs=1e-12)
        for run in (traj, gl.Trajectory(traj.grid, traj.states, traj.controls)):
            with pytest.raises(ValueError, match="run has 20 nodes but the system has 40"):
                gl.evaluate_cost(run, large)


class TestOracleCompare:
    @pytest.mark.parametrize("alpha_t, t_loop, t_path",
                             [(16, "7.6", "7.536"), (17, "7.65", "7.531"), (20, "7.52", "7.52")])
    def test_lost_precision_raises_at_the_first_checked_node(self, alpha_t, t_loop, t_path):
        # beta0 = 0: P grows like exp(2 alpha0 t) along the uncontrollable
        # residual until rounding gives it a negative diagonal.  The full path
        # checks every node and raises at the first bad one; the oracle's loop
        # checks its chunk ends and sampled nodes, and raises at the first of
        # those, where the path's P fails the same check
        horizon, steps = alpha_t / 2.0, 500
        g = gl.sinusoidal_graphon()
        one = gl.CoeffPoly([1.0])
        p = gl.LqrProblem(2.0, gl.CoeffPoly([0.0, 1.0]), one, one, g, horizon)
        sys_ = gl.build_step_system(gl.sample_step_entries(g, 8), p)
        with pytest.raises(gl.BlowUpError, match=f"not positive semidefinite at t = {t_loop}$"):
            gl.oracle_compare(sys_, gl.initial_state(8, 0), horizon / steps)
        with pytest.raises(gl.BlowUpError, match=f"not positive semidefinite at t = {t_path}$"):
            gl.solve_matrix_riccati(sys_.a_mat, sys_.b_mat, sys_.q_mat, sys_.p0_mat,
                                    horizon, horizon / steps)
        # the path's exact steps, chunked as the solver takes them, unchecked;
        # the balanced P is s P, which the relative check does not see
        s, _, squares = riccati_module._step_rule(sys_.a_mat, sys_.b_mat, sys_.q_mat,
                                                  horizon, steps)
        m = 2 ** (len(squares) - 1)

        def power_times(j, v):  # E^j v, the squares of j's set bits lowest first
            for i, square in enumerate(squares):
                if j >> i & 1:
                    v = square @ v
            return v

        path = [s * sys_.p0_mat]
        with np.errstate(all="ignore"):
            for k in range(0, steps, m):
                start = np.vstack([path[k], np.eye(8)])
                xy = np.array([power_times(i, start) for i in range(1, min(m, steps - k) + 1)])
                new = np.linalg.solve(xy[:, 8:].swapaxes(1, 2), xy[:, :8].swapaxes(1, 2))
                path.extend(0.5 * (new + new.swapaxes(1, 2)))
        diag = np.diagonal(np.array(path), axis1=1, axis2=2)
        bad = (diag < -1e-8 * np.abs(diag).max(axis=1, keepdims=True)).any(axis=1)
        grid = gl.uniform_grid(horizon, horizon / steps)
        assert f"{grid[np.argmax(bad)]:.6g}" == t_path
        node = np.argmin(np.abs(grid - float(t_loop)))
        assert f"{grid[node]:.6g}" == t_loop and bad[node]

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

    def test_matvec_oracle_loop_matches_generic_loop(self, monkeypatch):
        # the oracle's loop in oracle_compare against the public oracle
        # controller run through the generic loop, which converges to it at
        # second order (the controller interpolates P); 1000 steps leave a
        # partial last chunk.  Its cost is the value x0'P(T)x0/n of the path
        rng = np.random.default_rng(52)
        g, entries = make_rank_kernel(rng, 7, 2)
        p = gl.LqrProblem(0.4, input_poly(rng, 2), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(7, 53)
        runs = []
        loop = sim_module._oracle_loop

        def recorded(*args):
            runs.append(loop(*args))
            return runs[-1]

        monkeypatch.setattr(sim_module, "_oracle_loop", recorded)
        errors = []
        for dt in (1e-3, 5e-4):
            report = gl.oracle_compare(sys_, x0, dt)
            states, p_end, _, _ = runs[-1]
            controller, (_, path) = gl.oracle_controller(sys_, dt)
            ref = gl.simulate(sys_, controller, x0, p.horizon, dt)
            assert ref.grid.size == states.shape[0]
            errors.append(rel_gap(ref.states, states))
            assert np.array_equal(p_end, path[-1])
            assert report.j_oracle == float(x0 @ p_end @ x0) / 7
        assert len(runs) == 2 and 3.5 <= errors[0] / errors[1] <= 4.5

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_exact_oracle_states_are_the_closed_form_growth(self, vii_problem, dt):
        # the oracle's states from its chunk factors against each mode's
        # closed-form growth Y_m(T - t)/Y_m(T) on the 40-cell example
        n = 40
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 7)
        params = vii_problem.mode_params.T
        grid = gl.uniform_grid(1.0, dt)

        def ln_y(tau):
            _, y_hat, omega = riccati_module._ExplicitRiccati(*params).scaled(tau[:, None])
            return omega * tau[:, None] + np.log(y_hat)

        growth = np.exp(ln_y(1.0 - grid) - ln_y(np.array([1.0])))
        coords, resid = vii_problem.graphon.project(x0)
        f = vii_problem.graphon.cells(n)
        exact = (growth[:, 1:] * coords) @ f + growth[:, :1] * resid
        assert rel_gap(oracle_states(sys_, x0, dt), exact) <= 1e-12

    def test_oracle_forms_no_riccati_path(self, vii_problem, monkeypatch):
        # the oracle solves P at chunk ends and the sampled times only; its
        # sampled P are the full path's, bit for bit
        n, dt = 16, 1e-3
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 3)
        grid, path = gl.solve_matrix_riccati(sys_.a_mat, sys_.b_mat, sys_.q_mat,
                                             sys_.p0_mat, 1.0, dt)

        def fail(*args):
            raise AssertionError("the full matrix Riccati path was solved")

        for module in (riccati_module, sim_module):
            monkeypatch.setattr(module, "solve_matrix_riccati", fail)
        report = gl.oracle_compare(sys_, x0, dt)
        nodes = range(0, 1001, 50)
        _, p_end, sampled, _ = riccati_module._oracle_loop(
            sys_.a_mat, sys_.b_mat, sys_.q_mat, sys_.p0_mat, x0, grid, nodes)
        assert np.array_equal(p_end, path[-1])
        for k in nodes:
            assert np.array_equal(sampled[k], path[k])
        assert report.p_gap == max(
            float(np.abs(gl.reconstruct_P(vii_problem, grid[k], n) - path[k]).max())
            for k in nodes)
        assert report.cost_rel_gap <= 1e-12 and report.state_gap <= 1e-12


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
    p_start = gl.reconstruct_P(p, 0.0, n)
    np.testing.assert_allclose(p_start, sys_.p0_mat, rtol=0.0, atol=1e-12)


class TestTruncationStudy:
    def test_full_level_recovers_optimal_cost_exactly(self):
        p = sinusoidal_problem()
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 20), p)
        rows = gl.truncation_study(sys_, gl.initial_state(20, 60), [2])
        assert rows[0].j_truncated == rows[0].j_optimal

    def test_costs_dominate_optimum_and_ratios_match(self):
        p = sinusoidal_problem(poly_b=(1.0,))
        n = 40
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 61)
        rows = gl.truncation_study(sys_, x0, [0, 1, 2])
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
        rows = gl.truncation_study(sys_, gl.initial_state(12, 64), range(p.d + 1))
        for row in rows:
            assert np.isnan(row.predicted_ratio[:row.level]).all()
            for h in range(row.level, p.d):
                assert row.predicted_ratio[h] == gl.ratio_prediction(p)[h]

    def test_one_law_per_level_and_no_eigenfunction_call(self, monkeypatch):
        # once the system's cell table exists, a study builds two truncated
        # laws, the optimal and the level-0 one, whatever the levels, and
        # evaluates no eigenfunction
        rng = np.random.default_rng(69)
        _, entries = make_rank_kernel(rng, 10, 3)
        g = gl.StepGraphon(entries).spectral_decompose()
        p = gl.LqrProblem(0.4, gl.CoeffPoly([0.9]), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        calls, truncated = [], []
        step_call, truncate = gl.StepFunction.__call__, sim_module.truncate_problem

        def counting(self, x):
            calls.append(self.n)
            return step_call(self, x)

        def recording_truncate(problem, level):
            truncated.append(level)
            return truncate(problem, level)

        monkeypatch.setattr(gl.StepFunction, "__call__", counting)
        monkeypatch.setattr(sim_module, "truncate_problem", recording_truncate)
        rows = gl.truncation_study(sys_, gl.initial_state(10, 70), [1, p.d, 0, 1])
        assert [row.level for row in rows] == [1, p.d, 0, 1]
        assert sorted(truncated) == [0, p.d]
        assert calls == []

    def test_one_synthesis_and_one_run_per_level(self, monkeypatch):
        # a study synthesizes no gains (its command's one synthesis is for
        # gains.csv) and makes one run per distinct law: the optimal and the
        # level-0 one
        rng = np.random.default_rng(65)
        g, entries = make_rank_kernel(rng, 10, 3)
        p = gl.LqrProblem(0.4, gl.CoeffPoly([0.9]), admissible_poly(rng, g.lambdas, 2),
                          admissible_poly(rng, g.lambdas, 2), g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        syntheses = record_calls(monkeypatch, lqr_module.synthesize_gains)
        runs = record_calls(monkeypatch, sim_module.simulate)
        x0 = gl.initial_state(10, 66)
        rows = gl.truncation_study(sys_, x0, [*range(p.d + 1), 1])
        assert syntheses == []
        assert sorted(args[1].problem.d for args in runs) == [0, p.d]  # level d: optimal
        assert [row.level for row in rows] == [0, 1, 2, 3, 1]
        assert rows[-1].j_optimal == rows[-2].j_truncated
        # each composed level costs what its own law's run costs
        for row in rows:
            law = gl.FeedbackLaw(truncate_problem(p, row.level))
            own = gl.evaluate_cost(gl.simulate(sys_, law, x0, 1.0, 1e-3), sys_).total
            assert row.j_truncated == pytest.approx(own, rel=1e-14, abs=0.0)

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
        gl.truncation_study(sys_, gl.initial_state(9, 68), range(p.d + 1))
        assert len(runs) == 2 and all(isinstance(run, ModalRun) for run in runs)

    def test_ratios_nan_without_constant_input_poly(self):
        p = sinusoidal_problem()  # degree-1 input polynomial
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, 16), p)
        rows = gl.truncation_study(sys_, gl.initial_state(16, 62), [0])
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
            traj = gl.simulate(sys_, gl.FeedbackLaw(p), x0, 1.0, 1e-3)
            return gl.evaluate_cost(traj, sys_).total

        ref = cost_at(320)
        gaps = np.array([abs(cost_at(n) - ref) for n in (20, 40, 80)])
        assert np.all(np.diff(gaps) < 0.0)
        assert gaps[1] <= gaps[0] / 2 and gaps[2] <= gaps[1] / 2

    def test_modal_engine_converges_to_closed_form(self, vii_problem):
        # the exact loop of mode m is g_m(t) = Y_m(T - t)/Y_m(T) with
        # ln Y = omega*tau + ln Y_hat, and the optimal cost is the value
        # V = Pi_0(T)|x_res|^2/n + sum_l Pi_l(T) c_l^2; the law behind a plain
        # callable runs the RK4 generic loop, whose run approaches the growths
        # at fourth order (the law reads exact gains at the stage times) and
        # whose trapezoid cost approaches the value at second order, while
        # the engine evaluates the closed form at every dt
        p, n = vii_problem, 40
        horizon = p.horizon
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 7)
        params = p.mode_params.T

        def ln_y(tau):
            _, y_hat, omega = riccati_module._ExplicitRiccati(*params).scaled(tau[:, None])
            return omega * tau[:, None] + np.log(y_hat)

        pi_end = gl.riccati_explicit(*params, [0.0, horizon])[-1]
        coords, resid = p.graphon.project(x0)
        value = pi_end @ np.append(resid @ resid / n, coords ** 2)
        growth_err, value_gap = [], []
        for dt in (4e-3, 2e-3, 1e-3):
            law = gl.FeedbackLaw(p)
            modal = gl.simulate(sys_, law, x0, horizon, dt)
            loop = gl.simulate(sys_, generic(law), x0, horizon, dt)
            exact = np.exp(ln_y(horizon - loop.grid) - ln_y(np.array([horizon])))
            assert np.abs(modal.growth - exact).max() <= 1e-12
            assert abs(gl.evaluate_cost(modal, sys_).total - value) <= 1e-12 * value
            # the loop's mode growths: its eigen coordinates and residual
            # against those of x0
            run_coords, run_resid = p.graphon.project(loop.states)
            growth = np.column_stack([run_resid @ resid / (resid @ resid),
                                      run_coords / coords])
            growth_err.append(np.abs(growth - exact).max())
            value_gap.append(abs(gl.evaluate_cost(loop, sys_).total - value) / value)
        assert growth_err[0] <= 4e-6 and value_gap[-1] <= 1e-5
        for errs, factor in ((growth_err, 2 ** 3.5), (value_gap, 3.5)):
            assert np.all(np.array(errs[:-1]) >= factor * np.array(errs[1:]))

    def test_time_step_convergence_pattern(self):
        # successive J differences of the generic loop shrink by a stable
        # factor: ~4 from the trapezoid cost quadrature on top of the
        # 4th-order trajectory; the closed-form run costs the same at every dt
        p = sinusoidal_problem()
        n = 16
        sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
        x0 = gl.initial_state(n, 70)

        def costs_at(dt):
            law = gl.FeedbackLaw(p)
            return [gl.evaluate_cost(gl.simulate(sys_, c, x0, 1.0, dt), sys_).total
                    for c in (law, generic(law))]

        exact, js = np.array([costs_at(dt) for dt in (4e-3, 2e-3, 1e-3, 5e-4)]).T
        assert np.abs(exact - exact[0]).max() <= 1e-12 * exact[0]
        diffs = np.abs(np.diff(js))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all(ratios >= 3.5) and np.all(ratios <= 16.5)

    def test_trajectory_is_fourth_order(self, vii_problem):
        # the law behind a plain callable reads exact gains at the RK4 stage
        # times, so the generic loop's terminal state approaches the
        # closed-form run's at fourth order at a shared dt; the closed-form
        # run ends at the same state at every dt
        n = 40
        sys_ = gl.build_step_system(gl.sample_step_entries(vii_problem.graphon, n),
                                    vii_problem)
        x0 = gl.initial_state(n, 71)
        law = gl.FeedbackLaw(vii_problem)
        ends, errors = [], []
        for dt in (2e-2, 1e-2, 5e-3):
            modal = gl.simulate(sys_, law, x0, 1.0, dt)
            assert isinstance(modal, ModalRun)
            ends.append(modal.states[-1])
            loop = gl.simulate(sys_, generic(law), x0, 1.0, dt)
            errors.append(np.abs(loop.states[-1] - ends[-1]).max())
        assert np.all(np.array(errors[:-1]) >= 2 ** 3.5 * np.array(errors[1:])), errors
        assert rel_gap(np.array(ends), np.tile(ends[-1], (3, 1))) <= 1e-12
