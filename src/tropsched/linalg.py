"""Dense max-plus matrices and the core kernels.

Storage is a dense row-major float64 array where -inf encodes the zero
element; construction rejects NaN and +inf so the only non-finite value
ever present is -inf, for which max/+ arithmetic is exact.  Vectors are
one-column matrices.  Matrices are immutable after construction and all
kernels are pure functions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAVector,
    NotSquare,
    StarDiverges,
    ZeroMatrix,
)
from .semiring import TropValue, t_add, t_pow

_NEG_INF = float("-inf")

# The one feasibility tolerance of the package: a condition value v passes
# when v <= FEASIBILITY_TOL, and a diagonal entry of the path closure above
# it is treated as a genuinely positive cycle.  Sharing it means optima
# sitting exactly on the convergence boundary (up to root-taking noise)
# still get a star; the inequality solver and the scheduler import it.
FEASIBILITY_TOL = 1e-9

# Above this many scalar ops the broadcast product is evaluated in row
# blocks of at most this many (one row when a row alone is larger), so the
# float64 temporary stays at 1 MiB unless one row needs more; blocks that
# fit in cache are also faster than one large broadcast.
_MATMUL_BLOCK_LIMIT = 131_072


def _entry_to_raw(x) -> float:
    if x is None:
        return _NEG_INF
    if isinstance(x, TropValue):
        return x.raw
    return float(x)


class TropMatrix:
    """Dense rectangular max-plus matrix."""

    __slots__ = ("_data",)

    def __init__(self, rows: Sequence[Sequence] | np.ndarray):
        if isinstance(rows, np.ndarray):
            data = rows.astype(np.float64, copy=True)
        else:
            data = np.array(
                [[_entry_to_raw(x) for x in row] for row in rows], dtype=np.float64
            )
        if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
            raise DimensionMismatch(f"matrix must be 2-D and non-empty, got shape {data.shape}")
        if np.isnan(data).any() or (data == np.inf).any():
            raise ValueError("matrix entries must be finite or the zero element")
        data.setflags(write=False)
        self._data = data

    @classmethod
    def _wrap(cls, data: np.ndarray) -> "TropMatrix":
        # Fast path for kernel outputs: trusted -inf/finite float64 arrays.
        obj = object.__new__(cls)
        data.setflags(write=False)
        obj._data = data
        return obj

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "TropMatrix":
        return cls._wrap(np.full((rows, cols), _NEG_INF))

    @classmethod
    def identity(cls, n: int) -> "TropMatrix":
        data = np.full((n, n), _NEG_INF)
        np.fill_diagonal(data, 0.0)
        return cls._wrap(data)

    @classmethod
    def column(cls, values: Iterable) -> "TropMatrix":
        return cls([[v] for v in values])

    @classmethod
    def row(cls, values: Iterable) -> "TropMatrix":
        return cls([list(values)])

    # -- shape and access ---------------------------------------------------

    @property
    def raw(self) -> np.ndarray:
        """Read-only float64 view; -inf encodes the zero element."""
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def is_vector(self) -> bool:
        return self._data.shape[1] == 1

    def entry(self, i: int, j: int) -> TropValue:
        return TropValue.from_raw(float(self._data[i, j]))

    def __getitem__(self, ij: tuple[int, int]) -> TropValue:
        return self.entry(*ij)

    def to_rows(self) -> list[list[float | None]]:
        """Nested lists with ``None`` in place of zero-element entries."""
        rows = self._data.tolist()
        # Only the rows that hold the zero element are rewritten entry by entry.
        for i in np.flatnonzero((self._data == _NEG_INF).any(axis=1)).tolist():
            rows[i] = [None if x == _NEG_INF else x for x in rows[i]]
        return rows

    def is_zero_matrix(self) -> bool:
        return bool((self._data == _NEG_INF).all())

    def allclose(self, other: "TropMatrix", tol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        a, b = self._data, other._data
        both_zero = (a == _NEG_INF) & (b == _NEG_INF)
        both_fin = np.isfinite(a) & np.isfinite(b)
        diff = np.where(both_fin, a, 0.0) - np.where(both_fin, b, 0.0)
        close = both_zero | (both_fin & (np.abs(diff) <= tol))
        return bool(close.all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self.shape == other.shape and bool((self._data == other._data).all())

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_add(self, other)

    def __matmul__(self, other: "TropMatrix") -> "TropMatrix":
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"TropMatrix({self.to_rows()!r})"


def mat_add(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Entrywise tropical sum."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"add: shapes {a.shape} and {b.shape} differ")
    return TropMatrix._wrap(np.maximum(a._data, b._data))


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Max-plus matrix product."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"mul: inner dims {a.cols} and {b.rows} differ")
    wa, wb = a._data, b._data
    r, k = wa.shape
    c = wb.shape[1]
    if r * k * c <= _MATMUL_BLOCK_LIMIT:
        out = (wa[:, :, None] + wb[None, :, :]).max(axis=1)
    else:
        out = np.empty((r, c))
        block = max(1, _MATMUL_BLOCK_LIMIT // (k * c))
        for i0 in range(0, r, block):
            i1 = min(r, i0 + block)
            out[i0:i1] = (wa[i0:i1, :, None] + wb[None, :, :]).max(axis=1)
    return TropMatrix._wrap(out)


def scalar_mul(x: TropValue | float | None, a: TropMatrix) -> TropMatrix:
    """Entrywise shift by a scalar (all-zero matrix if x is the zero element)."""
    x = TropValue.of(x)
    if x.is_zero:
        return TropMatrix.zeros(a.rows, a.cols)
    return TropMatrix._wrap(a._data + x.value)


def conjugate(a: TropMatrix) -> TropMatrix:
    """Multiplicative-inverse transpose; zero entries stay zero."""
    if a.is_zero_matrix():
        raise ZeroMatrix("conjugate of the all-zero matrix is undefined")
    at = a._data.T
    out = np.where(np.isfinite(at), -at, _NEG_INF)
    out += 0.0  # normalise -0.0 payloads
    return TropMatrix._wrap(out)


def trace(a: TropMatrix) -> TropValue:
    """Tropical sum of the diagonal."""
    if a.rows != a.cols:
        raise NotSquare(f"trace requires a square matrix, got {a.shape}")
    return TropValue.from_raw(float(np.diagonal(a._data).max()))


def trace_function(a: TropMatrix) -> TropValue:
    """Join of the traces of the first n powers (star convergence certificate)."""
    if a.rows != a.cols:
        raise NotSquare(f"trace function requires a square matrix, got {a.shape}")
    best = trace(a)
    power = a
    for _ in range(a.rows - 1):
        power = mat_mul(power, a)
        best = t_add(best, trace(power))
    return best


def mat_pow(a: TropMatrix, k: int) -> TropMatrix:
    """k-fold tropical product; the 0-th power is the identity."""
    if a.rows != a.cols:
        raise NotSquare(f"powers require a square matrix, got {a.shape}")
    if k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = TropMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def kleene_star(a: TropMatrix) -> TropMatrix:
    """Kleene star via the Floyd-Warshall path closure.

    The closure of the weighted digraph is computed in a single O(n^3)
    pass; joining the identity then gives the star.  A strictly positive
    diagonal entry of the closure witnesses a positive cycle, i.e. a
    diverging series, reported together with the offending trace value.
    """
    if a.rows != a.cols:
        raise NotSquare(f"star requires a square matrix, got {a.shape}")
    n = a.rows
    m = a._data.copy()
    for k in range(n):
        np.maximum(m, m[:, k, None] + m[None, k, :], out=m)
    if float(np.diagonal(m).max()) > FEASIBILITY_TOL:
        tr = trace_function(a)
        raise StarDiverges(f"star diverges: trace function value {tr.raw}", tr)
    np.fill_diagonal(m, np.maximum(np.diagonal(m), 0.0))
    return TropMatrix._wrap(m)


def is_regular(v: TropMatrix) -> bool:
    """True when the column vector has no zero entries."""
    if not v.is_vector:
        raise NotAVector(f"regularity is defined for column vectors, got {v.shape}")
    return bool(np.isfinite(v._data).all())


def is_column_regular(a: TropMatrix) -> bool:
    """True when no column is entirely zero."""
    return bool(np.isfinite(a._data).any(axis=0).all())


def spectral_radius(a: TropMatrix) -> TropValue:
    """Maximum cycle mean of the weighted digraph of a (Karp's algorithm).

    Karp's recursion starts from every state at once (a zero-weight virtual
    source with an arc into each state, so all states are reachable and no
    split into strongly connected components is needed): D_0 = 0 and
    D_k = D_{k-1} A, so D_k(v) is the heaviest walk of k arcs ending at v,
    and rho = max_v min_k (D_n(v) - D_k(v)) / (n - k) over the states with
    a finite D_n(v).  A walk of n arcs ending at v has a suffix of every
    shorter length, so each D_k(v) is finite there.  When no D_n(v) is
    finite the digraph is acyclic and the result is the zero element.
    """
    if a.rows != a.cols:
        raise NotSquare(f"spectral radius requires a square matrix, got {a.shape}")
    w = a._data
    n = w.shape[0]
    d = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        d[k] = (d[k - 1][:, None] + w).max(axis=0)
    reach = np.isfinite(d[n])
    if not reach.any():
        return TropValue.zero()
    denom = (n - np.arange(n)).astype(np.float64)
    ratios = (d[n, reach] - d[:n, reach]) / denom[:, None]
    return TropValue.from_raw(float(ratios.min(axis=0).max()))


def spectral_radius_via_traces(a: TropMatrix) -> TropValue:
    """Maximum cycle mean through the trace formula: join of tr(A^k)^(1/k)."""
    if a.rows != a.cols:
        raise NotSquare(f"spectral radius requires a square matrix, got {a.shape}")
    best = TropValue.zero()
    power = a
    for k in range(1, a.rows + 1):
        if k > 1:
            power = mat_mul(power, a)
        tr = trace(power)
        if not tr.is_zero:
            best = t_add(best, t_pow(tr, 1.0 / k))
    return best
