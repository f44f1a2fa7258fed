"""Scalar coefficient polynomials and their matrix realizations.

Network couplings enter the input operator and the cost weights as
polynomials of the coupling kernel.  On a finite network of size n the
kernel acts as the scaled coupling matrix ``entries / n``, so the matrix
form of a polynomial is always taken on that scaled matrix; evaluating
the same polynomial at an operator eigenvalue then agrees with the
matrix construction (spectral mapping).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class CoeffPoly:
    """Real polynomial ``c0 + c1 s + ... + ck s^k``, constant term first.

    Trailing zero coefficients are trimmed on construction (the zero
    polynomial keeps a single coefficient) into the tuple ``coeffs``.
    """

    coeffs: tuple

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficient list must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        nz = np.nonzero(c)[0]
        last = nz[-1] if nz.size else 0
        object.__setattr__(self, "coeffs", tuple(float(v) for v in c[: last + 1]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s):
        """Horner evaluation; accepts scalars or arrays."""
        s = np.asarray(s, dtype=float)
        acc = np.full_like(s, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * s + c
        return float(acc) if acc.ndim == 0 else acc


def as_poly(p) -> CoeffPoly:
    """Coerce a CoeffPoly or a coefficient sequence to CoeffPoly."""
    return p if isinstance(p, CoeffPoly) else CoeffPoly(p)


def apply_poly_matrix(p, m: np.ndarray) -> np.ndarray:
    """Matrix polynomial ``sum_k c_k m^k`` with ``m^0 = I`` (Horner).

    ``m`` must be square and is expected symmetric; the result is
    symmetrized to remove rounding skew.  Degrees in this package are
    small, so repeated multiplication is accurate for |eigenvalue| <= 1.
    """
    p = as_poly(p)
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    eye = np.eye(m.shape[0])
    acc = p.coeffs[-1] * eye
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m + c * eye
    return 0.5 * (acc + acc.T)
