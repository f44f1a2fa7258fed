"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line (with the measured margins) once its
assertions hold, so a verbose run doubles as the acceptance report.
"""
import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr import cli
from graphon_lqr.graphon import midpoint_grid
from graphon_lqr.lqr import (eigensystem_params, feedback_controller, project_state,
                             synthesize_gains)
from graphon_lqr.poly import apply_poly_matrix
from graphon_lqr.riccati import (ScalarRiccatiSpec, algebraic_root, riccati_path,
                                 solve_riccati_closed_form, solve_riccati_numeric)

from conftest import admissible_poly, make_rank_kernel, sinusoidal_problem


def report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS [{detail}]")


def test_criterion_1_oracle_equivalence():
    """Decoupled synthesis vs direct matrix Riccati on 20 random systems."""
    rng = np.random.default_rng(2024)
    sizes = [4, 6, 8]
    worst_cost, worst_p = 0.0, 0.0
    for trial in range(20):
        n = sizes[trial % 3]
        rank = int(rng.integers(1, 4))
        g, entries = make_rank_kernel(rng, n, rank)
        poly_b = gl.CoeffPoly(rng.uniform(-1.0, 1.0, int(rng.integers(1, 5))))
        poly_q = admissible_poly(rng, g.lambdas, int(rng.integers(0, 4)))
        poly_p0 = admissible_poly(rng, g.lambdas, int(rng.integers(0, 4)))
        p = gl.LqrProblem(float(rng.uniform(-1.0, 2.0)), poly_b, poly_q, poly_p0,
                          g, 1.0)
        sys_ = gl.build_step_system(entries, p)
        x0 = gl.initial_state(n, 1000 + trial)
        rep = gl.oracle_compare(sys_, x0, 1e-4)
        worst_cost = max(worst_cost, rep.cost_rel_gap)
        worst_p = max(worst_p, rep.p_gap)
        assert rep.cost_rel_gap <= 1e-5, f"trial {trial}: cost gap {rep.cost_rel_gap}"
        assert rep.p_gap <= 1e-6, f"trial {trial}: P gap {rep.p_gap}"
    report(1, "oracle equivalence",
           f"max cost gap {worst_cost:.2e} <= 1e-5, max P gap {worst_p:.2e} <= 1e-6")


def test_criterion_2_sinusoidal_showcase():
    """The preset decouples into the printed scalar problems and beats the oracle gap."""
    scn = cli.preset_example_vii()
    problem, system, x0 = cli.build_experiment(scn)
    # decoupled structure: rank 2, double eigenvalue 1/2
    assert problem.d == 2
    np.testing.assert_allclose(problem.graphon.lambdas, [0.5, 0.5], atol=0)
    # auxiliary Riccati dL = 4L - L^2 + 1 with L(0) = 1
    assert (2.0 * problem.alpha0, problem.beta0 ** 2, problem.q0, problem.z0) \
        == (4.0, 1.0, 1.0, 1.0)
    # eigendirection Riccati dM = 5M - (25/16)M^2 + 1/4 with M(0) = 1/4
    for idx in (0, 1):
        drift, gain, q, z = eigensystem_params(problem, idx)
        assert 2.0 * drift == 5.0
        assert gain ** 2 == pytest.approx(25.0 / 16.0, abs=0)
        assert (q, z) == (0.25, 0.25)
    rep = gl.oracle_compare(system, x0, scn.dt)
    assert rep.cost_rel_gap <= 1e-4
    report(2, "showcase reproduction",
           f"d=2, lam=1/2, scalar data exact; oracle cost gap "
           f"{rep.cost_rel_gap:.2e} <= 1e-4")


def test_criterion_3_closed_form_sweep():
    """Explicit Riccati solution vs RK4 on a 50-point parameter sweep."""
    rng = np.random.default_rng(7)
    alphas, betas, qs, z0s = [], [], [], []
    while len(alphas) < 50:
        alpha = rng.uniform(-2.0, 3.0)
        beta = rng.uniform(0.2, 2.0)
        q = rng.uniform(0.0, 2.0)
        z0 = rng.uniform(0.0, 2.0)
        if abs(z0 - algebraic_root(alpha, beta, q)) < 1e-6:
            continue
        alphas.append(alpha)
        betas.append(beta)
        qs.append(q)
        z0s.append(z0)
    _, vals = riccati_path(np.array(alphas), np.array(betas), np.array(qs),
                           np.array(z0s), 5.0, 1e-4)
    worst = 0.0
    for k in range(50):
        cf = solve_riccati_closed_form(
            ScalarRiccatiSpec(alphas[k], betas[k], qs[k], z0s[k], 5.0, 1e-4))
        worst = max(worst, float(np.abs(cf.values - vals[:, k]).max()))
    assert worst <= 1e-6
    # analytic anchor: alpha=0, beta=q=1, z0=0 integrates to tanh(t)
    tanh_spec = ScalarRiccatiSpec(0.0, 1.0, 1.0, 0.0, 1.0, 1e-4)
    tanh_cf = solve_riccati_closed_form(tanh_spec)
    tanh_num = solve_riccati_numeric(tanh_spec)
    tanh_gap = max(float(np.abs(tanh_cf.values - np.tanh(tanh_cf.grid)).max()),
                   float(np.abs(tanh_num.values - np.tanh(tanh_num.grid)).max()))
    assert tanh_gap <= 1e-8
    report(3, "closed-form agreement",
           f"sweep max gap {worst:.2e} <= 1e-6, tanh gap {tanh_gap:.2e} <= 1e-8")


@pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
def test_criterion_4_truncation_ratio(horizon):
    """Measured terminal ratio of the dropped direction matches the prediction."""
    p = sinusoidal_problem(horizon=horizon, poly_b=(1.0,))
    n, dt = 40, 1e-3
    sys_ = gl.build_step_system(gl.sample_step_entries(p.graphon, n), p)
    x0 = gl.initial_state(n, 97)
    rows = gl.truncation_study(sys_, x0, [1], dt)
    measured = rows[0].measured_ratio[1]
    predicted = rows[0].predicted_ratio[1]
    assert np.isfinite(measured)
    assert measured == pytest.approx(predicted, abs=1e-4)
    report(4, f"truncation ratio T={horizon}",
           f"measured {measured:.8f} vs predicted {predicted:.8f}, "
           f"gap {abs(measured - predicted):.2e} <= 1e-4")


def test_criterion_5_decoupling_identities():
    """Quadratic-form split and cross-term orthogonality on 200 random triples."""
    rng = np.random.default_rng(11)
    worst_split, worst_cross = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(3, 14))
        rank = int(rng.integers(1, min(4, n) + 1))
        g, entries = make_rank_kernel(rng, n, rank)
        poly_q = admissible_poly(rng, g.lambdas, int(rng.integers(0, 4)))
        x = rng.standard_normal(n)
        ds = project_state(x, g)
        q_mat = apply_poly_matrix(poly_q, entries / n)
        direct = x @ q_mat @ x / n
        split = (poly_q.const * ds.auxiliary @ ds.auxiliary / n
                 + np.atleast_1d(poly_q(g.lambdas)) @ ds.eigen_coords ** 2)
        worst_split = max(worst_split, abs(direct - split))
        f = g.eigfun_values(midpoint_grid(n))
        eig_part = f.T @ ds.eigen_coords
        power = np.eye(n)
        for _k in range(5):
            worst_cross = max(worst_cross,
                              abs(ds.auxiliary @ power @ eig_part / n))
            power = power @ (entries / n)
    assert worst_split <= 1e-8
    assert worst_cross <= 1e-10
    report(5, "decoupling identities",
           f"max split error {worst_split:.2e} <= 1e-8, "
           f"max cross term {worst_cross:.2e} <= 1e-10")


def test_criterion_6_optimality_dominance():
    """No truncation level or small perturbation beats the synthesized control."""
    rng = np.random.default_rng(13)
    margin = np.inf
    cases = []
    showcase = sinusoidal_problem()
    cases.append((showcase,
                  gl.build_step_system(gl.sample_step_entries(showcase.graphon, 40),
                                       showcase),
                  gl.initial_state(40, 300)))
    g, entries = make_rank_kernel(rng, 6, 3)
    random_p = gl.LqrProblem(0.5, gl.CoeffPoly([1.0, 0.4]),
                             admissible_poly(rng, g.lambdas, 2),
                             admissible_poly(rng, g.lambdas, 2), g, 1.0)
    cases.append((random_p, gl.build_step_system(entries, random_p),
                  gl.initial_state(6, 301)))
    dt = 1e-3
    for p, sys_, x0 in cases:
        gains = synthesize_gains(p, dt)
        base = feedback_controller(p, gains)
        j_opt = gl.evaluate_cost(gl.simulate(sys_, base, x0, p.horizon, dt),
                                 sys_).total
        for level in range(p.d):
            rows = gl.truncation_study(sys_, x0, [level], dt)
            assert rows[0].j_truncated >= j_opt - 1e-8
            margin = min(margin, rows[0].j_truncated - j_opt)
        for _ in range(10):
            w = rng.standard_normal(sys_.n)
            freq = rng.uniform(0.5, 4.0)
            pert = lambda t, x: base(t, x) + 1e-3 * np.sin(freq * t + 0.3) * w
            j = gl.evaluate_cost(gl.simulate(sys_, pert, x0, p.horizon, dt),
                                 sys_).total
            assert j >= j_opt - 1e-8
            margin = min(margin, j - j_opt)
    report(6, "optimality dominance",
           f"smallest excess over the optimum {margin:.2e} >= -1e-8")


def test_criterion_7_determinism(tmp_path):
    """Two preset runs with one seed emit byte-identical artifacts."""
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main(["example-vii", "--out", str(out1)]) == 0
    assert cli.main(["example-vii", "--out", str(out2)]) == 0
    names = ["gains.csv", "trajectory.csv", "cost.json", "scenario.json"]
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report(7, "determinism", f"{len(names)} artifacts byte-identical")
