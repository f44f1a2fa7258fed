"""The explicit scalar Riccati solution against an arbitrary-precision reference.

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
"""
import mpmath as mp
import numpy as np
import pytest

from graphon_lqr.errors import BlowUpError
from graphon_lqr.riccati import _ExplicitRiccati

from conftest import algebraic_root

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
