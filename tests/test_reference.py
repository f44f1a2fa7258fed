"""The explicit Riccati solution and the closed forms built on it against an arbitrary-precision reference.

`riccati._ExplicitRiccati` claims full relative precision for the solution
Pi, for ``ln Y`` (`log_y`) and for ``integral_0^tau Pi`` (`gain_integral`).
The reference here is the same Hamiltonian linearization evaluated in
mpmath: ``exp(H tau) = cosh(omega tau) I + sinh(omega tau)/omega H`` at
60 + omega*tau digits, enough that the cancellations of cosh and sinh
leave more digits than a double holds, ``integral Pi = (ln Y + alpha
tau)/beta^2`` and, where beta = 0, the integral of the linear solution.

Each package value is held to ``C*(1 + omega tau)*eps``: relative error for
Pi and the integral, error relative to ``max(1, |ln Y|)`` for ln Y.  The
factor ``1 + omega tau`` is the conditioning of ``exp(omega tau)`` under a
rounding of its argument.  The cases are seeded draws: alpha uniform in
+-60, scaled by 1, 1e-3 or 1e-8; beta 0 or 10^U(-6, 2); q and z0 each 0 or
10^U(-8, 4); tau = 10^U(-6, 1).  Every tenth draw starts at the positive
root of the right-hand side (`conftest.algebraic_root`, beta > 0), where
the solution stays at the root up to rounding.

The problem's closed forms in `lqr` read those values and are held to the
same bound, with omega tau the largest over the problem's modes:
`ratio_prediction`, ``exp(I_l - I_0)`` with ``I_m = ln Y_m + alpha_m
tau``, by its relative error over ``max(1, |I_0|, |I_l|)``, the size of the
integrals its exponent subtracts; and `reconstruct_P`, the gains on the
kernel's cell projectors, by its largest entry error over its norm, the
largest gain.

`sim._unit_costs` adds to the value of a direction dropped from the law the
integral of ``((beta0 L - b_l M_l)(T - t) g_l(t))^2`` over the run, g_l the
direction's growth under the residual gain; the reference takes that
integral by `mp.quad` of the same integrand in mpmath, and the unit cost is
held to the same bound by its relative error.
"""
import functools

import mpmath as mp
import numpy as np
import pytest

import graphon_lqr as gl
from graphon_lqr.errors import BlowUpError
from graphon_lqr.lqr import ratio_prediction, reconstruct_P
from graphon_lqr.riccati import _ExplicitRiccati
from graphon_lqr.sim import ModalRun, _unit_costs

from conftest import algebraic_root, make_rank_kernel

EPS = np.finfo(float).eps
DRAWS = 300
# Over the DRAWS cases below the largest errors read 1.46 (Pi), 0.83 (ln Y)
# and 1.67 (integral) in units of (1 + omega tau)*eps; over 6000 more draws
# of the same distribution, 1.66, 1.01 and 2.22.
C = 4.0


def draw_cases(rng):
    """``(alpha, beta, q, z0, tau)`` of the module's distribution, one per draw."""
    cases = []
    for i in range(DRAWS):
        alpha = rng.uniform(-60.0, 60.0) * rng.choice([1.0, 1e-3, 1e-8])
        root_start = i % 10 == 0
        beta = 0.0 if rng.random() < 0.5 and not root_start else 10.0 ** rng.uniform(-6, 2)
        q, z0 = (0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-8, 4) for _ in "qz")
        if root_start:
            z0 = float(algebraic_root(alpha, beta, q))
        cases.append((alpha, beta, q, z0, 10.0 ** rng.uniform(-6, 1)))
    return cases


def reference(alpha, beta, q, z0, tau):
    """``(Pi, ln Y, integral Pi)`` at tau in mpmath, and ``omega tau``."""
    omega_tau = float(np.hypot(alpha, beta * np.sqrt(q))) * tau
    with mp.workdps(60 + int(omega_tau)):
        a, b, q, z, t = (mp.mpf(v) for v in (alpha, beta, q, z0, tau))
        w = mp.sqrt(a * a + q * b * b)
        cosh = mp.cosh(w * t)
        sinh_w = mp.sinh(w * t) / w if w else t  # sinh(omega t)/omega
        x = (cosh + a * sinh_w) * z + q * sinh_w
        y = b * b * z * sinh_w + cosh - a * sinh_w
        log_y = mp.log(y)
        if not (q or z):  # Pi is 0; ln Y + alpha t would be rounding alone
            integral = mp.mpf(0)
        elif b:
            integral = (log_y + a * t) / (b * b)
        elif a:  # Pi = z0 e^(2 a t) + q (e^(2 a t) - 1)/(2 a)
            grow = mp.expm1(2 * a * t) / (2 * a)
            integral = z * grow + q * (grow - t) / (2 * a)
        else:
            integral = z * t + q * t * t / 2
        return (x / y, log_y, integral), omega_tau


@pytest.fixture(scope="module")
def errors():
    """Per quantity, the errors of the package's values in units of
    ``(1 + omega tau)*eps``, one per draw."""
    out = {"pi": [], "log_y": [], "integral": []}
    for alpha, beta, q, z0, tau in draw_cases(np.random.default_rng(20261020)):
        (pi, log_y, integral), omega_tau = reference(alpha, beta, q, z0, tau)
        sol = _ExplicitRiccati(alpha, beta, q, z0)
        unit = (1.0 + omega_tau) * EPS
        if pi > np.finfo(float).max:
            with pytest.raises(BlowUpError):
                sol(tau)
        else:  # relative error; absolute in units of the smallest normal below it
            err = abs(mp.mpf(float(sol(tau))) - pi) / max(pi, np.finfo(float).tiny)
            out["pi"].append(float(err) / unit)
        err = abs(mp.mpf(float(sol.log_y(tau))) - log_y) / max(1, abs(log_y))
        out["log_y"].append(float(err) / unit)
        value = float(sol.gain_integral(tau))
        if integral > np.finfo(float).max:
            assert value == np.inf
        else:
            err = abs(mp.mpf(value) - integral) / max(integral, np.finfo(float).tiny)
            out["integral"].append(float(err) / unit)
    return out


@pytest.mark.parametrize("quantity", ["pi", "log_y", "integral"])
def test_explicit_solution_matches_the_reference(errors, quantity):
    worst = max(errors[quantity])
    print(f"{quantity}: worst error {worst:.2f} (1 + omega tau) eps over "
          f"{len(errors[quantity])} draws")
    assert worst <= C


@pytest.mark.parametrize("q, z0, expected", [(0.0, 3.8e-6, np.inf), (1.0, 0.0, np.inf),
                                             (0.0, 0.0, 0.0)])
def test_zero_weight_term_stays_zero_where_the_integral_overflows(q, z0, expected):
    # beta = 0: past tau = 6.1 the exponential of 2*alpha*tau overflows, and a
    # term of zero weight must stay 0 rather than read 0*inf = NaN
    sol = _ExplicitRiccati(58.04, 0.0, q, z0)
    assert np.isfinite(sol.gain_integral(6.1))
    np.testing.assert_array_equal(sol.gain_integral(np.array([6.2, 100.0])), expected)


PROBLEM_DRAWS = 60
NODES = 6
# Over the PROBLEM_DRAWS problems below the largest errors read 1.27
# (ratio_prediction) and 0.93 (reconstruct_P) in units of (1 + omega tau)*eps,
# omega tau the largest of the problem's modes; over 3000 more draws, 1.75 and
# 2.47.  They are held to the scalar bound C.


def draw_problems(rng):
    """Problems of the scalar draws' scales on an exact rank-1..3 step kernel of
    NODES cells: alpha0 in +-60 scaled by 1, 1e-3 or 1e-8, eigenvalues of
    magnitude 10^U(-3, 1.5), a constant input beta0, zero one time in five or
    10^U(-6, 2), and linear weights q0*(1 + c*lam), z0*(1 + c'*lam) with q0 and
    z0 each 0 or 10^U(-8, 4), |c*lam| < 1 on the spectrum; tau = 10^U(-6, 1)."""
    problems = []
    for _ in range(PROBLEM_DRAWS):
        size = 10.0 ** rng.uniform(-3, 1.5)
        g, _ = make_rank_kernel(rng, NODES, int(rng.integers(1, 4)), (0.2 * size, size))
        alpha0 = rng.uniform(-60.0, 60.0) * rng.choice([1.0, 1e-3, 1e-8])
        beta0 = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6, 2)
        q0, z0 = (0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-8, 4) for _ in "qz")
        slope = np.abs(g.lambdas).max()
        weights = (gl.CoeffPoly([w, w * rng.uniform(-0.9, 0.9) / slope]) for w in (q0, z0))
        problems.append(gl.LqrProblem(alpha0, gl.CoeffPoly([beta0]), *weights, g,
                                      10.0 ** rng.uniform(-6, 1)))
    return problems


def mode_references(p):
    """Per mode of ``p``, ``(Pi, ln Y)`` at the horizon in mpmath, and the
    largest ``omega tau``."""
    refs = [reference(*row, p.horizon) for row in p.mode_params]
    return [r[0][:2] for r in refs], max(r[1] for r in refs)


@pytest.fixture(scope="module")
def problem_errors():
    """Per quantity, the errors of the package's values in units of
    ``(1 + omega tau)*eps``, one per problem that does not overflow."""
    out = {"ratio": [], "P": []}
    for p in draw_problems(np.random.default_rng(20261021)):
        modes, omega_tau = mode_references(p)
        unit = (1.0 + omega_tau) * EPS
        with mp.workdps(60 + int(omega_tau)):
            # ratio l: exp(I_l - I_0), I_m = ln Y_m(T) + alpha_m T
            integral = [log_y + mp.mpf(row[0]) * p.horizon
                        for (_, log_y), row in zip(modes, p.mode_params)]
            ratios = [mp.exp(i - integral[0]) for i in integral[1:]]
            if max(ratios) > np.finfo(float).max:
                with pytest.raises(BlowUpError):
                    ratio_prediction(p)
            else:
                # relative error, over the size of the integrals the exponent
                # subtracts: ln Y is exact to its own size, not to omega tau
                err = max(abs(mp.mpf(float(r)) - ref) / max(ref, np.finfo(float).tiny)
                          / max(1, abs(integral[0]), abs(i))
                          for r, ref, i in zip(ratio_prediction(p), ratios, integral[1:]))
                out["ratio"].append(float(err) / unit)
            # P = L I + sum_l (M_l - L) f_l f_l'/n, its norm the largest gain
            gains = [pi for pi, _ in modes]
            if max(gains) > np.finfo(float).max:
                with pytest.raises(BlowUpError):
                    reconstruct_P(p, p.horizon, NODES)
                continue
            f = p.graphon.cells(NODES)
            mat = reconstruct_P(p, p.horizon, NODES)
            err = max(abs(mp.mpf(float(mat[i, j])) - (gains[0] if i == j else 0) - sum(
                (m - gains[0]) * mp.mpf(float(f[l, i])) * mp.mpf(float(f[l, j])) / NODES
                for l, m in enumerate(gains[1:]))) for i in range(NODES) for j in range(NODES))
            out["P"].append(float(err / max(max(gains), np.finfo(float).tiny)) / unit)
    return out


@pytest.mark.parametrize("quantity", ["ratio", "P"])
def test_problem_closed_forms_match_the_reference(problem_errors, quantity):
    worst = max(problem_errors[quantity])
    print(f"{quantity}: worst error {worst:.2f} (1 + omega tau) eps over "
          f"{len(problem_errors[quantity])} problems")
    assert worst <= C


UNIT_DRAWS = 14
# Over the UNIT_DRAWS problems below, one law each at a drawn level, the
# largest error of a dropped direction's unit cost reads 1.00 in units of
# (1 + omega tau)*eps, held to the scalar bound C.  Over the 1200 problems of
# seeds 1-20 (1826 dropped directions) it reads 1.94, against a 45-digit
# quadrature on 32 panels.  STEEP_DRAWS are problems of those seeds that bind
# `_unit_costs`' panel rule or the reference: at seed 8, problem 30, the
# residual gain falls steeply from its start (beta0^2 z0 T = 6); at seed 18,
# problem 49, the modes grow at alpha T = 8 over the whole run; at seed 4,
# problem 7 (q = 0, alpha0 T = -90), the inflation, ~1e-9 of the cost, is
# held at the run's end, where one `mp.quad` over the whole run is off by 2%
# (1.5e3 and 8.0e2 units) and flags it by an error estimate of 80%: the
# reference then takes 32 panels (0.07 units).  A rule with panels 4 times
# wider, graded by 3 instead of 3/2, with 6 Gauss points, without the rates
# beta^2 z0 - alpha, or with the uniform panels of 1/fastest that it replaced
# misses C on the first two by factors of 100 to 1e10.
STEEP_DRAWS = ((8, 30), (18, 49), (4, 7))


def inflation_references(p, level):
    """``integral_0^T ((beta0 L - b_l M_l)(T - t) g_l(t))^2 dt`` in mpmath for
    each direction l > ``level``, dropped from the law, with ``ln g_l(t) =
    alpha_l t - b_l beta0 integral_{T-t}^T L``, L and M_l the solutions of rows
    0 and l of ``p.mode_params``: one `mp.quad` over the run, or one on each of
    32 panels where that one's error estimate exceeds 1e-25 of the direction's
    cost ``Pi_l(T)`` plus the integral."""
    horizon = p.horizon
    row0 = p.mode_params[0]
    # the directions' integrals read row 0 at the same nodes
    gain = functools.cache(lambda tau: reference(*row0, tau)[0])
    whole = gain(horizon)[2]

    def inflation(row):
        beta0, alpha, b = (mp.mpf(v) for v in (row0[1], row[0], row[1]))

        def integrand(t):
            pi, _, integral = gain(horizon - t)
            own = reference(*row, horizon - t)[0][0]
            with mp.workdps(60):  # the two gains cancel where the rows nearly agree
                growth = mp.exp(alpha * t - b * beta0 * (whole - integral))
                return ((beta0 * pi - b * own) * growth) ** 2

        with mp.workdps(30):
            whole_run, err = mp.quad(integrand, [0, horizon], error=True)
            if err <= 1e-25 * (reference(*row, horizon)[0][0] + whole_run):
                return whole_run
            return mp.quad(integrand, mp.linspace(0, horizon, 33))

    return [inflation(row) for row in p.mode_params[level + 1:]]


def unit_cost_errors(draws):
    """Per direction dropped by a draw ``(p, level)``, the error of its unit
    cost against the reference, in units of ``(1 + omega tau)*eps``."""
    errors = []
    for p, level in draws:
        # the unit costs read the run's problem and law, not its states
        run = ModalRun(grid=np.array([0.0, p.horizon]), resid=None, coords=None, problem=p,
                       law=gl.FeedbackLaw(gl.truncate_problem(p, level)))
        with np.errstate(over="ignore"):
            costs = _unit_costs(run)
        modes, omega_tau = mode_references(p)
        for l, inflation in enumerate(inflation_references(p, level), level + 1):
            cost = modes[l][0] + inflation
            if cost > np.finfo(float).max:
                assert costs[l] == np.inf
                continue
            err = abs(mp.mpf(float(costs[l])) - cost) / max(cost, np.finfo(float).tiny)
            errors.append(float(err) / ((1.0 + omega_tau) * EPS))
    return errors


def test_dropped_directions_cost_matches_the_reference():
    rng = np.random.default_rng(20261022)
    problems = draw_problems(rng)[:UNIT_DRAWS]
    worst = max(unit_cost_errors([(p, int(rng.integers(p.d))) for p in problems]))
    print(f"unit cost: worst error {worst:.2f} (1 + omega tau) eps")
    assert worst <= C


def test_panel_rule_resolves_steep_and_fast_runs():
    draws = []
    for seed, index in STEEP_DRAWS:
        rng = np.random.default_rng(seed)
        problems = draw_problems(rng)
        levels = [int(rng.integers(p.d)) for p in problems]
        draws.append((problems[index], levels[index]))
    errors = unit_cost_errors(draws)
    print(f"unit cost: errors {np.round(errors, 2).tolist()} (1 + omega tau) eps")
    assert len(errors) == 4 and max(errors) <= C
