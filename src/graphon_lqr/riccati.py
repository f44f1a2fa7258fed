"""Scalar and matrix Riccati solvers.

The scalar equation

    dPi/dt = 2*alpha*Pi - beta^2*Pi^2 + q,    Pi(0) = z0,

is solved explicitly through its Hamiltonian linearization by
`riccati_explicit`, vectorized over equations, and by RK4 in
`riccati_path`, one `rk4_step` per grid step, the reference the explicit
solution is checked against.  Solutions are functions of Riccati time
tau: `_ExplicitRiccati` sets the explicit one up once (``LqrProblem.riccati``
holds that of a problem's scalar problems), and a feedback law evaluates
it at the time to go ``T - t``.  The same factors give, with no time grid, the
closed loops of the decoupled modes: ``ln Y`` (`_ExplicitRiccati.log_y`),
whose differences are the optimal growths, and the gain integral
``integral_0^tau Pi`` (`_ExplicitRiccati.gain_integral`), which drives a
direction a truncated law drops.

The matrix equation

    dP/dt = A' P + P A - P B B' P + Q,        P(0) = P0,

is the direct verification oracle for the decoupled synthesis.  It is
solved by the same Hamiltonian linearization in dense n x n form,
balanced so that its off-diagonal blocks weigh alike, one exact step
``E = exp(H h)`` per grid step, taken in chunks of m steps (`_forward`,
`_exact_steps`), so the oracle carries no integration error of its own:
a gap between oracle and synthesis is rounding.  m is the longest power
of two that keeps a chunk well conditioned, and a chunk reaches
``E^j [P; I]`` from its first P by the squares ``E^(2^i)`` of j's set
bits, lowest first (`_step_rule`, `_power_times`).  `solve_matrix_riccati`
returns P at every node; the oracle's loop (`_oracle_loop`) solves P at
chunk ends alone, takes its states from the chunk factors by the same
squares and checks its value on a second chunking.  Sampled solutions
are ``(grid, values)`` pairs; nothing here interpolates them.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BlowUpError
from .integrate import rk4_step, uniform_grid


def _checked_params(alpha, beta, q, z0):
    """Parameters of scalar Riccati equations, broadcast to one shape.

    Raises `ValueError` naming the parameter when one is not finite, or
    when the state weight q or the initial value z0 is negative (they are
    quadratic cost weights, which keeps the solution nonnegative and
    bounded on any horizon).
    """
    names = ("alpha", "beta", "q", "z0")
    params = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, beta, q, z0)))
    for name, v in zip(names, params):
        if not np.isfinite(v).all():
            raise ValueError(f"Riccati parameter {name} must be finite, "
                             f"got {np.extract(~np.isfinite(v), v)[0]}")
    for name, v in zip(names[2:], params[2:]):
        if (v < 0.0).any():
            raise ValueError(f"Riccati parameter {name} must be >= 0, got {v.min()}")
    return params


def riccati_path(alpha, beta, q, z0, horizon: float, dt: float):
    """RK4-integrate one or many scalar Riccati equations on a shared grid.

    The reference integrator for `riccati_explicit`, one `rk4_step` per
    grid step.  Parameters may be scalars or equal-length arrays (one
    equation per entry), checked by `_checked_params`.  Returns ``(grid,
    values)`` with values of shape ``(len(grid),) + param_shape``.
    """
    alpha, beta, q, z0 = _checked_params(alpha, beta, q, z0)
    grid = uniform_grid(horizon, dt)
    beta2 = beta * beta

    def rhs(_t, y):
        return 2.0 * alpha * y - beta2 * y * y + q

    vals = np.empty(grid.shape + z0.shape)
    y = vals[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):  # rk4_step reports an overflow
        for k in range(grid.size - 1):
            t = grid[k]
            y = vals[k + 1] = rk4_step(rhs, t, grid[k + 1] - t, y, rhs(t, y))
    return grid, vals


def riccati_explicit(alpha, beta, q, z0, grid) -> np.ndarray:
    """Explicit solution of one or many scalar Riccati equations on a grid.

    Parameters broadcast and are checked as in `riccati_path` (one
    equation per entry, q and z0 nonnegative); returns values of shape
    ``(len(grid),) + param_shape``.  With ``Pi = X/Y`` the equation is
    the linear system ``[X; Y]' = H [X; Y]``, ``X(0) = z0``, ``Y(0) = 1``,
    ``H = [[alpha, q], [beta^2, -alpha]]``.  As ``H^2 = omega^2 I`` with
    ``omega = sqrt(alpha^2 + q*beta^2)``,
    ``exp(H t) = cosh(omega t) I + sinh(omega t)/omega H``; scaled by
    ``exp(-omega t)`` this gives (`_ExplicitRiccati.scaled`)

        X_hat = z0*(g+ + E*g-) + q*s,    Y_hat = (g- + E*g+) + beta^2*z0*s,

    with ``E = exp(-2 omega t)``, ``s = (1 - E)/(2 omega)`` (``t`` in the
    limit omega -> 0) and ``g+- = (omega +- alpha)/(2 omega)``.  The
    smaller of g+- is formed as ``r^2/(2 omega (omega + |alpha|))``,
    r = |beta| sqrt(q), so no term cancels: every one is nonnegative and
    bounded, and Pi keeps full relative precision.  t = 0 returns z0
    exactly.  It is `_ExplicitRiccati`'s setup and one evaluation.

    Raises `BlowUpError` when a value overflows (Y underflows to zero
    while X does not).
    """
    return _ExplicitRiccati(alpha, beta, q, z0)(np.ravel(np.asarray(grid, dtype=float)))


class _ExplicitRiccati:
    """`riccati_explicit` set up once for its equations, evaluated at any times.

    The setup checks the parameters (`_checked_params`) and forms the
    time-independent factors ``rates = (omega, g+, g-)``; calling the
    object with times of any shape returns the solutions there, shape
    ``times.shape + param_shape``, by `riccati_explicit`'s arithmetic.
    `scaled`, `log_y` and `gain_integral` evaluate the factors, ``ln Y``
    and ``integral Pi`` from the same setup, broadcasting times against
    the parameters.
    """

    __slots__ = ("params", "rates")

    def __init__(self, alpha, beta, q, z0):
        self.params = alpha, beta, q, z0 = _checked_params(alpha, beta, q, z0)
        r, a = np.abs(beta) * np.sqrt(q), np.abs(alpha)
        omega = np.hypot(a, r)
        with np.errstate(all="ignore"):  # 0/0 in unused branches
            big = np.where(omega > 0.0, (omega + a) / (2.0 * omega), 0.5)
            small = np.where(omega > 0.0, r * (r / (omega + a)) / (2.0 * omega), 0.5)
        self.rates = (omega, np.where(alpha >= 0.0, big, small),
                      np.where(alpha >= 0.0, small, big))

    def scaled(self, t):
        """``(X_hat, Y_hat, omega)`` at times ``t``, broadcast against the
        parameters: ``X = exp(omega t) X_hat`` and ``Y = exp(omega t) Y_hat``,
        so ``Pi = X_hat/Y_hat`` and ``ln Y = omega t + ln Y_hat``."""
        _, beta, q, z0 = self.params
        omega, g_plus, g_minus, s, e = _time_parts(self.rates, t)
        return (z0 * (g_plus + e * g_minus) + q * s,
                (g_minus + e * g_plus) + beta * beta * z0 * s, omega)

    def __call__(self, times) -> np.ndarray:
        z0 = self.params[3]
        times = np.asarray(times, dtype=float)
        t = times.reshape(times.shape + (1,) * z0.ndim)
        num, den, _ = self.scaled(t)
        with np.errstate(all="ignore"):  # 0/0 where Y underflows; overflow raises below
            vals = num / den
        # z0 = q = 0 stays at zero also where Y underflows
        vals = np.where(num == 0.0, 0.0, vals)
        vals = np.where(t == 0.0, z0, vals)
        bad = ~np.isfinite(vals)
        if bad.any():
            k = int(np.argmax(bad.reshape(times.size, -1).any(axis=1)))
            raise BlowUpError(f"Riccati solution overflows at t = {times.flat[k]:.6g}")
        return vals

    def log_y(self, t):
        """``ln Y`` at times ``t``, with no overflow.

        ``Y = exp(omega t)*(g- + beta^2 z0 s) + exp(-omega t)*g+``, summed in
        log space, so a Y that would overflow or underflow keeps its
        logarithm.  ``ln Y(T) + alpha T`` is ``integral_0^T beta^2 Pi``.
        """
        _, beta, _, z0 = self.params
        omega, g_plus, g_minus, s, _ = _time_parts(self.rates, t)
        with np.errstate(divide="ignore"):  # ln 0 = -inf for a vanishing term
            return np.logaddexp(omega * t + np.log(g_minus + beta * beta * z0 * s),
                                np.log(g_plus) - omega * t)

    def gain_integral(self, t):
        """``integral_0^t Pi`` at times ``t``, to full relative precision.

        ``Y exp(alpha t) = 1 + beta^2 W`` with

            W = q t^2 (g+ phi2((alpha + omega) t) + g- phi2((alpha - omega) t))
                + z0 s exp((alpha + omega) t),

        ``phi2(y) = (e^y - 1 - y)/y^2`` (the terms of order 0 and 1 cancel
        exactly, as ``g+ + g- = 1`` and ``(alpha + omega) g- = (omega - alpha) g+``),
        so the integral ``ln(1 + beta^2 W)/beta^2`` is ``W log1p(x)/x`` with
        ``x = beta^2 W``: every term is nonnegative and none cancels, for
        every beta, zero included.  Where ``x > 1`` it is
        ``(ln Y + alpha t)/beta^2`` (`log_y`), which cannot overflow.  A term
        of zero weight q or z0 is zero, also where its factor overflows, so
        an integral beyond the float range is inf, never 0*inf = NaN.
        """
        alpha, beta, q, z0 = self.params
        omega, g_plus, g_minus, s, _ = _time_parts(self.rates, t)
        b2 = beta * beta
        with np.errstate(all="ignore"):  # overflowing W and unused branches
            up = (alpha + omega) * t
            q_part = q * t * t * (g_plus * _phi2(up) + g_minus * _phi2((alpha - omega) * t))
            w = (np.where(q == 0.0, 0.0, q_part)
                 + np.where(z0 == 0.0, 0.0, z0 * s * np.exp(up)))
            x = np.where(b2 > 0.0, b2 * w, 0.0)
            ratio = np.where(x > 0.0, np.log1p(x) / x, 1.0)
            return np.where(x <= 1.0, w * ratio, (self.log_y(t) + alpha * t) / b2)


def _time_parts(rates, t):
    """``(omega, g+, g-, s, E)`` of the scaled factors at times ``t``."""
    # -x = -2 omega t: E = exp(-x) and s = t*(1 - E)/x, which is t at x = 0
    neg_x = -2.0 * rates[0] * t
    with np.errstate(all="ignore"):  # 0/0 in the unused branch
        s = t * np.where(neg_x < 0.0, np.expm1(neg_x) / neg_x, 1.0)
    return (*rates, s, np.exp(neg_x))


def _phi2(y):
    """``(e^y - 1 - y)/y^2`` to full relative precision, 1/2 at y = 0."""
    near = np.abs(y) < 0.5
    u = np.where(near, y, 0.0)
    acc = np.ones_like(u)
    for k in range(17, 2, -1):  # the series sum_j u^j/(j + 2)! by Horner
        acc = 1.0 + u * acc / k
    with np.errstate(all="ignore"):
        return np.where(near, 0.5 * acc, (np.expm1(y) - y) / (y * y))


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor sum of degree 18 at most.

    ``m`` is scaled by a power of two into the open unit 1-norm ball,
    where the Taylor remainder is below 3/19! < 3e-17 of the norm of the
    result, and the sum is squared back.  A smaller norm theta takes the
    fewest terms whose first omitted one, ``theta^(N+1)/(N+1)!``, is at
    most ``0.5/19!``, which keeps that bound (a step of the matrix
    Riccati equation, theta about 1/200, takes 6).  A non-finite input or
    an overflow gives non-finite entries, not an exception.
    """
    theta = np.abs(m).sum(axis=0).max()
    s = max(0, int(np.frexp(theta)[1]))
    m = m / 2.0 ** s
    theta /= 2.0 ** s
    terms, omitted = 0, theta  # omitted = theta^(terms+1)/(terms+1)!
    while terms < 18 and not omitted <= 0.5 / math.factorial(19):
        terms += 1
        omitted *= theta / (terms + 1)
    eye = np.eye(m.shape[0])
    e = eye
    for j in range(terms, 0, -1):  # Horner: I + m/1 (I + m/2 (I + ...))
        e = eye + (m @ e) / j
    for _ in range(s):
        e = e @ e
    return e


def solve_matrix_riccati(a_mat, b_mat, q_mat, p0_mat, horizon: float, dt: float):
    """Solve the matrix Riccati equation exactly on a uniform grid.

    With ``P = X Y^-1`` the equation is the linear system
    ``[X; Y]' = H [X; Y]``, ``X(0) = P0``, ``Y(0) = I``,
    ``H = [[A', Q], [B B', -A]]``, balanced by `_step_rule`.  With
    ``E = exp(H h)`` (`_expm`), a step of h takes P to
    ``(E11 P + E12)(E21 P + E22)^-1``, exact at any h.  The steps are
    taken in chunks of m from each chunk's first node (`_forward`), by the
    squares of E (`_step_rule`); m keeps ``m*h*|H|_1 <= 1`` (m >= 1),
    so that ``Y`` stays well conditioned on stiff problems.  Each new P is
    symmetrized, and the next chunk starts from the last.
    ``q_mat`` and ``p0_mat`` must be symmetric positive semidefinite.
    Raises `BlowUpError`, naming the earliest time, when a value is not
    finite (the step overflows) or P has lost its precision
    (`_exact_steps`).  Returns ``(grid, values)``, P at every node of
    ``uniform_grid(horizon, dt)`` in ``values[k]``.
    """
    a = np.asarray(a_mat, dtype=float)
    b = np.asarray(b_mat, dtype=float)
    q = np.asarray(q_mat, dtype=float)
    p0 = np.asarray(p0_mat, dtype=float)
    shape = (a.shape[0],) * 2 if a.ndim else (1, 1)
    for name, m in (("A", a), ("B", b), ("Q", q), ("P0", p0)):
        if m.shape != shape:
            raise ValueError(f"matrix {name} must be square of shape {shape}, got {m.shape}")
    grid = uniform_grid(horizon, dt)
    solved = _forward(_step_rule(a, b, q, horizon, grid.size - 1), p0, grid, range(grid.size))[1]
    return grid, np.array([solved[k] for k in range(grid.size)])


def _step_rule(a, b, q, horizon: float, steps: int):
    """The balanced exact step ``E = exp(H h)``, ``h = horizon/steps``, and its squares.

    X is scaled by s, the power of two nearest ``sqrt(|B B'|_1/|Q|_1)``
    (1 where either norm is 0): the norms of the off-diagonal blocks of
    ``H = [[A', s Q], [B B'/s, -A]]`` stay within a factor of 2 of each
    other at any scale of the cost, (Q, P0) * c with B / sqrt(c), and its P
    is ``s P``, exact in binary.  Returns ``(s, ham_h, squares)``: ``H h``
    and ``E^(2^i)`` for ``i = 0 .. L``.  E is squared while
    ``2^i*h*|H|_1 <= 1`` and ``2^i <= steps``, and ``m = 2^L``, the last
    square's, is the chunk length (at least 1).  An overflow gives
    non-finite entries, which `_exact_steps` reports.
    """
    bb = b @ b.T
    bb_norm, q_norm = (np.abs(m).sum(axis=0).max() for m in (bb, q))
    ratio = bb_norm / q_norm if q_norm > 0.0 else 0.0
    s = 2.0 ** round(0.5 * math.log2(ratio)) if 0.0 < ratio < math.inf else 1.0
    ham_h = np.block([[a.T, s * q], [bb / s, -a]]) * (horizon / steps)
    h_norm = np.abs(ham_h).sum(axis=0).max()
    with np.errstate(all="ignore"):  # an overflow is reported by _exact_steps
        squares = [_expm(ham_h)]
        while 2 ** len(squares) <= steps and 2 ** len(squares) * h_norm <= 1.0:
            squares.append(squares[-1] @ squares[-1])
    return s, ham_h, squares


def _power_times(squares, j, memo):
    """``E^j v`` from ``memo[0] = v``, by the squares of j's set bits, lowest first.

    ``E^j v = E^(2^i) E^(j - 2^i) v`` with ``2^i`` the highest set bit of
    j, so ``E^j v`` is the same product chain, bit for bit, whatever else
    ``memo`` holds; each product is formed once and kept in ``memo``.
    """
    if j not in memo:
        top = j.bit_length() - 1
        memo[j] = squares[top] @ _power_times(squares, j - 2 ** top, memo)
    return memo[j]


def _forward(rule, p0, grid, nodes):
    """The exact steps of `_step_rule`'s ``rule`` from ``P(0) = p0`` over ``grid``.

    The steps are taken in chunks of m, each from its first node, and P is
    solved at the chunk ends and at the Riccati-time indices ``nodes``
    alone, from ``E^j [s P_k; I]`` (`_power_times`, its products kept for
    the chunk alone; `_exact_steps`), so every caller solves the same P bit
    for bit.  Returns the chunks, ``(k, s P_k, Y_end)`` each, with the
    balanced P at the chunk's first node k and ``Y`` at its end, and a
    dict of P at node 0, at the chunk ends and at ``nodes``.
    """
    s, _, squares = rule
    m, steps, n = 2 ** (len(squares) - 1), grid.size - 1, p0.shape[0]
    wanted = set(nodes)
    start = 0.5 * (p0 + p0.T)
    p_k, chunks, solved = s * start, [], {0: start}
    for k in range(0, steps, m):
        end = min(k + m, steps)
        ends = [*sorted(wanted.intersection(range(k + 1, end))), end]
        memo = {0: np.vstack([p_k, np.eye(n)])}
        with np.errstate(all="ignore"):  # an overflow is reported by _exact_steps
            xy = np.array([_power_times(squares, i - k, memo) for i in ends])
        new = _exact_steps(xy, grid[ends])
        chunks.append((k, p_k, xy[-1, n:].copy()))
        p_k = new[-1].copy()
        new /= s
        solved.update(zip(ends, new))
    return chunks, solved


def _exact_steps(xy: np.ndarray, times: np.ndarray):
    """Ps of exact steps of the matrix Riccati equation, solved and checked.

    ``xy`` is a stack of ``[X; Y] = E^i [P; I]``, 2n x n each, one per
    step power.  Each new P solves ``Y' P = X'``, one batched solve, and
    is symmetrized; bit for bit it does not depend on the other blocks.
    Returns the new Ps.  Raises `BlowUpError` at the earliest
    ``times[i]`` whose P is not finite, else at the earliest whose
    diagonal has an entry below ``-1e-8*max|diag P|``: a positive
    semidefinite P has a nonnegative diagonal, so such a P has lost its
    precision (as when P grows like ``exp(2 alpha t)`` along a direction
    the input cannot reach, and the rounding of ``E21`` times that block
    swamps ``Y``).
    """
    n = xy.shape[2]
    with np.errstate(all="ignore"):  # an overflow is reported below
        # P = X Y^-1 solves Y' P' = X'; P is symmetric
        new = np.linalg.solve(xy[:, n:].swapaxes(1, 2), xy[:, :n].swapaxes(1, 2))
        new = 0.5 * (new + new.swapaxes(1, 2))
    bad = ~np.isfinite(new).reshape(len(new), -1).all(axis=1)
    if bad.any():
        raise BlowUpError("matrix Riccati solution is not finite at "
                          f"t = {times[np.argmax(bad)]:.6g}")
    diag = np.diagonal(new, axis1=1, axis2=2)
    bad = (diag < -1e-8 * np.abs(diag).max(axis=1, keepdims=True)).any(axis=1)
    if bad.any():
        raise BlowUpError("matrix Riccati solution is not positive semidefinite "
                          f"at t = {times[np.argmax(bad)]:.6g}")
    return new


def _oracle_loop(a, b, q, p0, x0: np.ndarray, grid: np.ndarray, nodes):
    """The optimal loop of the matrix Riccati oracle and checks of its end value.

    ``a, b, q, p0`` are the dense system's matrices and ``grid`` the
    run's uniform grid.  Returns its states on ``grid``, P(T), P at 0, at
    ``nodes`` (Riccati-time indices), at ``m // 2`` and at the chunk ends,
    and the checks' P(T).  P comes from the forward chain of
    `solve_matrix_riccati` (`_forward`), solved at those nodes alone.  Along
    the optimal loop ``d/dt Y(T - t) = (A - B B' P(T - t)) Y(T - t)``, so a
    backward pass over the chunks gives the states from the chunk factors
    ``Y_i = E^i_21 P_k + E^i_22``:

        x(tau_(k+i)) = Y_i Y_m^-1 x(tau_(k+m)),

    one n x n solve per chunk for the state at each chunk start, and then
    ``E^i [P_k x; x]`` for every i < m and every chunk at once, doubled
    with the squares of E (``E^(2^l)`` times blocks ``0 .. 2^l - 1``, the
    order in which `_power_times` applies them), log2(m) batched
    products, with no time stepping and no (K+1) x n x n array.  The
    checks run the forward chain again from P at node ``m // 2``, so that
    the same exact steps are chunked half a chunk later, and solve P at
    its chunk ends alone.  The first check takes its whole chunks by the
    last square ``E^m``; the second by ``exp(H m h)`` itself, so that the
    rounding of the squares, which the loop reads at every chunk end, is
    not common to all three values.  Single steps (m = 1) have no shifted
    chunking and ``exp(H h)`` is the loop's own step: the one check there
    steps by a second rounding of E, the cube of the exponential of a
    third of a step.  The values are exact, so they agree to rounding
    unless rounding has swamped P.
    """
    steps, n = grid.size - 1, a.shape[0]
    rule = s, ham_h, squares = _step_rule(a, b, q, grid[-1], steps)
    m = 2 ** (len(squares) - 1)
    chunks, solved = _forward(rule, p0, grid, [*nodes, m // 2])
    states = np.empty((grid.size, n))
    x = states[0] = x0
    blocks = np.empty((m, 2 * n, len(chunks)))  # block i: E^i [s P_k x; x] at each node k
    for j in reversed(range(len(chunks))):
        k, p_start, y_end = chunks[j]
        x = states[steps - k] = np.linalg.solve(y_end, x)  # the state at node k
        blocks[0, :n, j], blocks[0, n:, j] = p_start @ x, x
    for i, square in enumerate(squares[:-1]):  # block 2^i + l is E^(2^i) times block l
        np.matmul(square, blocks[:2 ** i], out=blocks[2 ** i:2 ** (i + 1)])
    for j, (k, _, _) in enumerate(chunks):  # Y_i x_k is the state at node k + i
        top = steps - k  # the grid index of Riccati node k
        length = min(m, top)
        states[top - length + 1:top] = blocks[1:length, n:, j][::-1]

    def check(full):  # P(T) from node m/2 on, with ``full`` the power of a whole chunk
        shifted = _forward((s, ham_h, [*squares[:-1], full]), solved[m // 2], grid[m // 2:], ())
        return shifted[1][steps - m // 2]

    if m > 1:
        fulls = [squares[-1], _expm(ham_h * m)]
    else:  # a second rounding of E: exp(H h / 2) squares to it bit for bit
        third = _expm(ham_h / 3)
        fulls = [third @ third @ third]
    return states, solved[steps], solved, [check(full) for full in fulls]
