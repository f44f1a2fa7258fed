"""Network coupling kernels on the unit square and their spectra.

Two kernel families are supported:

* ``FiniteRankGraphon`` -- a symmetric kernel given by finitely many
  eigenpairs, ``A(x, y) = sum_l lam_l f_l(x) f_l(y)`` with orthonormal
  eigenfunctions on [0, 1].
* ``StepGraphon`` -- a piecewise-constant kernel on the uniform
  n-partition of [0, 1], i.e. a weighted network of n nodes with
  1/n-scaled coupling.

A step kernel can be decomposed into a finite-rank one
(`StepGraphon.spectral_decompose`), and a finite-rank kernel can be
sampled back onto a partition (`sample_step_entries`).  Inner products
of cell-value vectors use the weight 1/n so that step-function algebra
agrees with the L2([0,1]) geometry throughout.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

# Midpoint quadrature nodes for inner products of analytic eigenfunctions.
_QUAD_NODES = 4096

_ROOT2 = np.sqrt(2.0)

# Nodes per axis for kernel L2 distances.
_DISTANCE_NODES = 1024


def midpoint_grid(m: int) -> np.ndarray:
    """Midpoints of the uniform m-partition of [0, 1]."""
    return (np.arange(m) + 0.5) / m


def _point_or_array(a):
    """A value read at one point as a float, at an array of points as the array."""
    return float(a) if np.ndim(a) == 0 else a


def _check_coords(x, name: str):
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):  # NaN fails both comparisons
        raise ValueError(f"{name} must lie in [0, 1]")
    return x


def cell_index(x, n: int):
    """Cell of the uniform n-partition containing x (last cell closed at 1)."""
    x = _check_coords(x, "coordinate")
    return np.minimum((x * n).astype(int), n - 1)


@dataclass(frozen=True, slots=True, eq=False)
class StepFunction:
    """Piecewise-constant function on the uniform n-partition of [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("cell values must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("cell values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def __call__(self, x):
        return self.values[cell_index(x, self.n)]

    def __repr__(self):
        return f"StepFunction(n={self.n})"


@dataclass(frozen=True)
class EigenPair:
    """One spectral summand: eigenvalue and unit-L2-norm eigenfunction.

    ``fun`` is a callable on [0, 1], an analytic eigenfunction of a named
    kernel or a `StepFunction`; zero eigenvalues are never stored.
    """

    lam: float
    fun: Callable

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam == 0.0:
            raise ValueError(f"eigenvalue must be finite and nonzero, got {self.lam}")


class FiniteRankGraphon:
    """Symmetric kernel ``sum_l lam_l f_l(x) f_l(y)`` of finite rank.

    Parameters
    ----------
    pairs : sequence of EigenPair
        Ordered by non-increasing |eigenvalue|, with eigenfunctions
        L2-orthonormal on [0, 1]; both are checked here.  Analytic
        eigenfunctions (the sin, cos and const of `graphon_from_spec`) of
        distinct integer frequencies in [1, 2048), with at most one const,
        are orthonormal on the 4096 midpoints of `quadrature_grid` by
        their spec (`_fourier_basis`), so construction evaluates none of
        them.  Any other list is checked by its Gram matrix on
        `quadrature_grid`, each entry within 1e-8 of the identity's, and
        the values are kept in the cell table.
    """

    def __init__(self, pairs: Sequence[EigenPair]):
        self.pairs = tuple(pairs)
        step_ns = {p.fun.n for p in self.pairs if isinstance(p.fun, StepFunction)}
        self._step_n = step_ns.pop() if len(step_ns) == 1 and all(
            isinstance(p.fun, StepFunction) for p in self.pairs) else None
        self._cells: dict[int, np.ndarray] = {}
        lams = self.lambdas
        if np.any(np.abs(lams[1:]) > np.abs(lams[:-1]) * (1.0 + 1e-12)):
            raise ValueError(
                f"eigenvalues must be ordered by non-increasing magnitude, got {lams}")
        if self.rank and not _fourier_basis(p.fun for p in self.pairs):
            f = self.cells(self.quadrature_grid().size)
            if not np.abs(f @ f.T / f.shape[1] - np.eye(self.rank)).max() <= 1e-8:  # NaN fails
                raise ValueError("eigenfunctions are not L2-orthonormal on [0, 1]")

    # -- basic structure ------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    def quadrature_grid(self) -> np.ndarray:
        """Nodes used for inner products (exact cells for step spectra)."""
        return midpoint_grid(self._step_n or _QUAD_NODES)

    def eigfun_values(self, x) -> np.ndarray:
        """Values of every eigenfunction at ``x``; shape (rank,) + x.shape."""
        x = np.asarray(x, dtype=float)
        if self.rank == 0:
            return np.zeros((0,) + x.shape)
        return np.stack([np.broadcast_to(p.fun(x), x.shape) for p in self.pairs])

    def cells(self, n: int) -> np.ndarray:
        """Read-only eigenfunction values at the n cell midpoints, shape (rank, n).

        Evaluated once per n and kept: every computation on cell vectors
        reads the kernel's basis from this table.  n < 1 is rejected, so
        no empty vector is projected or scaled by 1/n.
        """
        f = self._cells.get(n)
        if f is None:
            if n < 1:
                raise ValueError(f"partition size must be >= 1, got {n}")
            f = self._cells[n] = self.eigfun_values(midpoint_grid(n))
            f.flags.writeable = False
        return f

    def project(self, v):
        """Coordinates of a state on the eigenfunctions and its residual.

        A vector of cell values over n cells, or a stack of them one per
        row, gives ``coords = v F'/n`` and the residual ``v - coords F``
        with ``F = cells(n)``.  A function on [0, 1] gives its coordinates
        by midpoint quadrature on `quadrature_grid` and its residual as a
        function.
        """
        if callable(v):
            coords = self.project(v(self.quadrature_grid()))[0]
            return coords, lambda x: _point_or_array(
                np.asarray(v(x), dtype=float) - self.span(coords, x))
        v = np.asarray(v, dtype=float)
        f = self.cells(v.shape[-1])
        coords = v @ f.T / f.shape[1]
        return coords, v - coords @ f

    def span(self, coords, x):
        """``sum_l coords[l] * f_l(x)``: a float at a point, an array on an array."""
        return _point_or_array(np.tensordot(coords, self.eigfun_values(x), axes=1))

    # -- kernel operations ----------------------------------------------

    def eval(self, x, y):
        """Kernel value A(x, y); broadcasts over array coordinates."""
        x = _check_coords(x, "x")
        y = _check_coords(y, "y")
        shape = np.broadcast_shapes(x.shape, y.shape)
        acc = np.zeros(shape)
        for p in self.pairs:
            acc = acc + p.lam * p.fun(x) * p.fun(y)
        return _point_or_array(acc)

    def apply(self, v):
        """Apply the kernel as an integral operator, ``sum_l lam_l <v, f_l> f_l``.

        A callable ``v`` yields a callable: the coordinates of `project`
        evaluated by `span`.  A length-n vector of cell values yields the
        vector of cell values of the image, read on `cells(n)`.
        """
        if callable(v):
            weights = self.lambdas * self.project(v)[0]
            return lambda x: self.span(weights, x)
        v = np.asarray(v, dtype=float)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-d cell-value vector, got shape {v.shape}")
        f = self.cells(v.size)
        coeffs = f @ v / v.size
        return f.T @ (self.lambdas * coeffs)

    def truncate(self, level: int) -> "FiniteRankGraphon":
        """Keep the first min(level, rank) eigenpairs, a valid prefix of a checked
        set, on the leading rows of the cell tables: it evaluates no eigenfunction."""
        if level < 0:
            raise ValueError(f"truncation level must be >= 0, got {level}")
        out = object.__new__(FiniteRankGraphon)
        vars(out).update(vars(self), pairs=self.pairs[:level],
                         _cells={n: f[:level] for n, f in self._cells.items()})
        return out

    def __repr__(self):
        return f"FiniteRankGraphon(rank={self.rank}, lambdas={np.round(self.lambdas, 6)})"


class StepGraphon:
    """Piecewise-constant kernel on the uniform n-partition of [0, 1].

    ``entries`` is the symmetric coupling matrix, of any finite
    magnitude; the kernel takes value ``entries[i, j]`` on cell (i, j).
    ``StepGraphon(entries)`` validates a given matrix: its minimum and
    maximum give finiteness, and it must equal its transpose exactly.
    The offending indices are located only when a check fails.  The
    n-cell network of a finite-rank kernel (`sample_step_entries`) holds
    that ``kernel`` and n alone: `eval` and `apply` read the kernel, and
    ``entries`` is formed from the kernel's cell table on first read;
    ``kernel`` is None for a given matrix.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {a.shape}")
        # NaN propagates through min and max
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise ValueError("coupling matrix must be finite")
        if not np.array_equal(a, a.T):
            bad = np.argwhere(a != a.T)
            pairs = ", ".join(f"({i},{j})" for i, j in bad[:8])
            raise ValueError(f"coupling matrix is not symmetric at indices {pairs}")
        self.entries, self.n, self.kernel = a, a.shape[0], None

    @cached_property
    def entries(self) -> np.ndarray:
        """A sampled kernel's matrix ``C+ C+' - C- C-'``, formed on first read.

        F is the kernel's cell table ``kernel.cells(n)`` and ``C± =
        F±' sqrt(±lam±)`` over the positive and the negative eigenvalues.
        numpy computes the product of one buffer with its own transpose as
        a symmetric rank-k update and mirrors the triangle, so the matrix
        is exactly symmetric and agrees with ``kernel.eval`` at the
        midpoints up to rounding.  A rank-0 kernel samples to zeros.
        """
        f = self.kernel.cells(self.n)
        lams = self.kernel.lambdas
        pos, neg = lams > 0.0, lams < 0.0
        c_pos = np.ascontiguousarray(f[pos].T * np.sqrt(lams[pos]))
        a = c_pos @ c_pos.T  # zeros when no eigenvalue is positive
        if neg.any():
            c_neg = np.ascontiguousarray(f[neg].T * np.sqrt(-lams[neg]))
            a -= c_neg @ c_neg.T
        return a

    def eval(self, x, y):
        """Kernel value by cell lookup, a sampled network's kernel read at the
        cell midpoints; broadcasts over array coordinates."""
        ix = cell_index(x, self.n)
        iy = cell_index(y, self.n)
        if self.kernel is not None:
            return self.kernel.eval((ix + 0.5) / self.n, (iy + 0.5) / self.n)
        return _point_or_array(self.entries[ix, iy])

    def apply(self, v):
        """Apply the kernel operator: cell vectors map to ``entries @ v / n``, on a
        sampled network to ``kernel.apply(v)`` in O(n * rank)."""
        if callable(v):
            return StepFunction(self.apply(v(midpoint_grid(self.n))))
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(
                f"cell-value vector must have shape ({self.n},), got {v.shape}")
        if self.kernel is not None:
            return self.kernel.apply(v)
        return self.entries @ v / self.n

    def spectral_decompose(self) -> FiniteRankGraphon:
        """Eigendecompose the kernel operator into a `FiniteRankGraphon`.

        Operator eigenvalues are ``eig(entries) / n``; eigenvalues with
        |lam| <= ``1e-10 * n * max|a_ij|`` are dropped: the numerically-zero
        spectrum of a rank-deficient matrix, at any scale of the coupling.
        Eigenfunctions are step functions with cell values ``sqrt(n) * v``
        for unit eigenvectors v, so their L2 norm on [0, 1] is one; the
        first nonzero cell value is made positive.
        """
        n = self.n
        try:
            w, vecs = np.linalg.eigh(self.entries)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"eigendecomposition of the {n}x{n} coupling matrix failed: {exc}") from exc
        lams = w / n
        keep = np.abs(lams) > 1e-10 * n * np.max(np.abs(self.entries), initial=0.0)
        lams, vecs = lams[keep], vecs[:, keep]
        order = np.lexsort((-lams, -np.abs(lams)))
        pairs = []
        for k in order:
            vec = vecs[:, k]
            lead = np.flatnonzero(np.abs(vec) > 1e-12 * max(1.0, np.abs(vec).max()))
            if lead.size and vec[lead[0]] < 0.0:
                vec = -vec
            pairs.append(EigenPair(float(lams[k]), StepFunction(np.sqrt(n) * vec)))
        return FiniteRankGraphon(pairs)

    def __repr__(self):
        return f"StepGraphon(n={self.n})"


# -- standard kernels and scenario ingestion ---------------------------------


def sinusoidal_graphon() -> FiniteRankGraphon:
    """The kernel cos(2*pi*(x - y)): two eigenpairs with eigenvalue 1/2."""
    return FiniteRankGraphon([EigenPair(0.5, _AnalyticEigfun("sin", 1.0)),
                              EigenPair(0.5, _AnalyticEigfun("cos", 1.0))])


def uniform_graphon() -> FiniteRankGraphon:
    """The all-ones kernel: one eigenpair, eigenvalue 1, flat eigenfunction."""
    return FiniteRankGraphon([EigenPair(1.0, _AnalyticEigfun("const", 1.0))])


def sample_step_entries(g: FiniteRankGraphon, n: int) -> StepGraphon:
    """The n-cell network of a kernel, sampled at the cell midpoints.

    The network holds ``g`` and n and reads the cell table ``g.cells(n)``,
    evaluated here, so n < 1 raises now; its ``entries`` are formed only
    when read (`StepGraphon.entries`), which a step system of ``g``'s own
    problem never does before the oracle or the generic loop asks.
    """
    g.cells(n)
    net = object.__new__(StepGraphon)
    net.n, net.kernel = n, g
    return net


def l2_distance(g1, g2) -> float:
    """L2([0,1]^2) distance between two kernels by midpoint quadrature.

    Symmetric in its arguments and zero iff the kernels agree almost
    everywhere at the quadrature resolution.
    """
    mids = midpoint_grid(_DISTANCE_NODES)
    x, y = mids[:, None], mids[None, :]
    diff = np.asarray(g1.eval(x, y)) - np.asarray(g2.eval(x, y))
    return float(np.sqrt(np.mean(diff ** 2)))


@dataclass(frozen=True, slots=True, eq=False)
class _AnalyticEigfun:
    """The unit-L2 eigenfunction sqrt(2)*sin(2*pi*freq*x), sqrt(2)*cos(2*pi*freq*x)
    or 1 of a kernel's pair.

    It keeps its ``kind`` and ``freq``, so that a kernel of such pairs can be
    orthonormal by its spec (`_fourier_basis`), and it compares by identity,
    as a closure does.
    """

    kind: str
    freq: float

    def __post_init__(self):
        if self.kind not in ("sin", "cos", "const"):
            raise ValueError(
                f"graphon field 'fun' must be one of sin|cos|const, got {self.kind!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.ones_like(x)
        trig = np.sin if self.kind == "sin" else np.cos
        return _ROOT2 * trig(2.0 * np.pi * self.freq * x)


def _fourier_basis(funs) -> bool:
    """Whether ``funs`` are analytic sin and cos of distinct integer frequencies
    in [1, m/2) and at most one const, m = `_QUAD_NODES`.

    Such a list is exactly orthonormal on the m midpoints by discrete
    orthogonality: every sum or difference of two frequencies that is not 0
    lies strictly between -m and m, where the midpoint means of cos and sin
    vanish.
    """
    keys = [(f.kind, None if f.kind == "const" else f.freq)
            if isinstance(f, _AnalyticEigfun) else None for f in funs]
    return None not in keys and len(set(keys)) == len(keys) and all(
        kind == "const" or (1 <= freq < _QUAD_NODES / 2 and freq % 1 == 0)
        for kind, freq in keys)


def json_number(value) -> float:
    """A scenario number: a JSON integer or float, as a float.

    Booleans, which Python reads as 1 and 0, strings and every other type
    raise `ValueError`, as does an integer beyond the float range.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("must be a number within the float range") from None


def _check_keys(raw: dict, names, owner: str) -> None:
    """Reject a key of ``raw`` outside ``names``, which would read as absent."""
    for key in raw:
        if key not in names:
            raise ValueError(f"{owner} field '{key}': unknown field")


_SPEC_FIELDS = {"sinusoidal": ("type",), "uniform": ("type",),
                "step": ("type", "matrix_csv"), "finite_rank": ("type", "pairs")}


def graphon_from_spec(spec: dict, base_dir: str = "."):
    """Build a kernel from its scenario-file description.

    Supported forms::

        {"type": "sinusoidal"}
        {"type": "uniform"}
        {"type": "step", "matrix_csv": "coupling.csv"}
        {"type": "finite_rank",
         "pairs": [{"lambda": 0.5, "fun": "sin", "freq": 1}, ...]}

    Step matrices are read as row-major CSV and validated by
    `StepGraphon` (finite, exactly symmetric, entries of any magnitude);
    relative paths resolve against ``base_dir``, and a file that holds no
    matrix of numbers is rejected with its path.  Each ``lambda`` and
    ``freq`` must be a finite `json_number`, and the pairs must pass the
    ordering and orthonormality checks of `FiniteRankGraphon`.  A key that
    the spec type or a pair does not list is rejected.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("graphon spec must be an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise ValueError(f"graphon field 'type': unknown kind {kind!r}")
    _check_keys(spec, _SPEC_FIELDS[kind], "graphon")
    if kind == "sinusoidal":
        return sinusoidal_graphon()
    if kind == "uniform":
        return uniform_graphon()
    if kind == "step":
        path = spec.get("matrix_csv")
        if not path:
            raise ValueError("graphon field 'matrix_csv': missing path for step graphon")
        if not isinstance(path, str):
            raise ValueError(
                f"graphon field 'matrix_csv': expected a path string, got {path!r}")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        if not os.path.exists(full):
            raise ValueError(f"graphon field 'matrix_csv': file not found: {full}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # numpy's "no data"
                entries = np.atleast_2d(np.loadtxt(full, delimiter=",", dtype=float))
        except (ValueError, UserWarning) as exc:
            # numpy appends advice on `usecols` after a ';', which does not apply
            reason = str(exc).split(";")[0]
            raise ValueError(f"graphon field 'matrix_csv': {full} is not a "
                             f"comma-separated matrix of numbers: {reason}") from None
        return StepGraphon(entries)
    # finite_rank, the one kind left
    raw = spec.get("pairs")
    if not raw or not isinstance(raw, list):
        raise ValueError("graphon field 'pairs': a non-empty list is required "
                         "for a finite_rank graphon")
    pairs = []
    for item in raw:
        if not isinstance(item, dict) or "lambda" not in item or "fun" not in item:
            raise ValueError("graphon field 'pairs': each entry needs 'lambda' and 'fun'")
        _check_keys(item, ("lambda", "fun", "freq"), "graphon")
        numbers = []
        for name in ("lambda", "freq"):
            try:
                numbers.append(json_number(item.get(name, 1.0)))
                if not np.isfinite(numbers[-1]):
                    raise ValueError(f"must be finite, got {numbers[-1]}")
            except ValueError as exc:
                raise ValueError(f"graphon field 'pairs': '{name}' {exc}") from None
        lam, freq = numbers
        pairs.append(EigenPair(lam, _AnalyticEigfun(item["fun"], freq)))
    return FiniteRankGraphon(pairs)
