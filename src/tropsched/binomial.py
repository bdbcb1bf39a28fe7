"""Power sums of matrix binomials via a two-index table recurrence.

For square A, B of the same order, the table cell (k, l) is the join of
all products with exactly k factors of A interleaved with powers of B of
total degree at most l:

    T[k, l] = join over i0+...+ik <= l of B^i0 (A B^i1 ... A B^ik)

The cells satisfy T[k, l] = A T[k-1, l] + B T[k, l-1] with boundaries
T[k, 0] = A^k and T[0, l] = I + B + ... + B^l; filling the triangle
k + l <= p costs O(n^3 p^2) scalar operations.  Because every product in
cell (k, l) carries exactly k A-factors, the table separates the terms of
the truncated power sum of (A + B) by A-degree.

The stage-two pipeline uses only the vector forms (``form_columns``),
which propagate the triangle on one right-hand vector by one max-plus
product per anti-diagonal, at O(n^2 p^2).  The matrix table (``build_table``
and the power, trace and per-degree trace sums built on it) is library
surface and the reference the tests check the stage-two term families against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import TropMatrix, mat_add, mat_mul, trace
from .semiring import TropValue


def _check_pair(a: TropMatrix, b: TropMatrix) -> int:
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise DimensionMismatch(
            f"square matrices of equal order required, got {a.shape} and {b.shape}"
        )
    return a.rows


@dataclass(frozen=True)
class BinomialTable:
    """Filled triangle of degree-separated binomial cells (immutable)."""

    A: TropMatrix
    B: TropMatrix
    p: int
    cells: dict[tuple[int, int], TropMatrix] = field(repr=False)

    def cell(self, k: int, l: int) -> TropMatrix:
        return self.cells[(k, l)]


def build_table(a: TropMatrix, b: TropMatrix, p: int) -> BinomialTable:
    """Fill all cells with k + l <= p by the two-term recurrence."""
    _check_pair(a, b)
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    cells: dict[tuple[int, int], TropMatrix] = {}
    eye = TropMatrix.identity(a.rows)
    cells[(0, 0)] = eye
    acc = eye
    b_power = eye
    for l in range(1, p + 1):
        b_power = mat_mul(b_power, b)
        acc = mat_add(acc, b_power)
        cells[(0, l)] = acc
    for k in range(1, p + 1):
        cells[(k, 0)] = mat_mul(a, cells[(k - 1, 0)])
        for l in range(1, p - k + 1):
            cells[(k, l)] = mat_add(
                mat_mul(a, cells[(k - 1, l)]), mat_mul(b, cells[(k, l - 1)])
            )
    return BinomialTable(A=a, B=b, p=p, cells=cells)


def binomial_power_sum(a: TropMatrix, b: TropMatrix, p: int) -> TropMatrix:
    """Join of (A + B)^k for k = 1..p, assembled from the table."""
    _check_pair(a, b)
    table = build_table(a, b, p)
    out = table.cell(1, p - 1)
    for k in range(2, p + 1):
        out = mat_add(out, table.cell(k, p - k))
    b_power = b
    out = mat_add(out, b_power)
    for _ in range(p - 1):
        b_power = mat_mul(b_power, b)
        out = mat_add(out, b_power)
    return out


def binomial_trace_sum(a: TropMatrix, b: TropMatrix, p: int) -> TropValue:
    """Join of tr (A + B)^k for k = 1..p: the trace of the power sum."""
    return trace(binomial_power_sum(a, b, p))


def weighted_trace_terms(
    p_mat: TropMatrix, q_mat: TropMatrix, p: int
) -> dict[int, TropValue]:
    """Per-degree trace terms of the truncated power sum of (P + Q).

    term[k] is the join over i0+...+ik <= p-k of
    tr(Q^i0 (P Q^i1 ... P Q^ik)), i.e. the coefficient that multiplies the
    k-th inverse power of the scale parameter when P is scaled and Q is
    not.  Keys run k = 1..p.
    """
    table = build_table(p_mat, q_mat, p)
    return {k: trace(table.cell(k, p - k)) for k in range(1, p + 1)}


def form_columns(
    p_mat: TropMatrix, q_mat: TropMatrix, rhs: TropMatrix, p: int
) -> TropMatrix:
    """The anti-diagonal T[k, p-k] . rhs, k = 0..p, as the columns of a matrix.

    Only right-multiplied table columns are needed, so the triangle is
    propagated on vectors: e[k, l] = P e[k-1, l] + Q e[k, l-1] with
    e[k, 0] = P^k rhs and e[0, l] = rhs + Q e[0, l-1].  Anti-diagonal k + l = s
    is one ``mat_mul`` of the cells of s - 1, as rows, with [P; Q]^T, whose
    halves are P e and Q e: p products and O(n^2 p^2) scalar operations, each
    walk summed as in a cell-by-cell fill, so the result is the same to the
    bit.  Column k of the d x (p+1) result is T[k, p-k] . rhs; a row vector
    times it gives every per-degree bilinear form at once.
    """
    d = _check_pair(p_mat, q_mat)
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    if rhs.cols != 1 or rhs.rows != d:
        raise DimensionMismatch(f"form requires a {d}x1 rhs, got {rhs.shape}")
    # [P; Q]^T in row-major order, so the product's inner axis is contiguous.
    pq_t = TropMatrix._wrap(np.vstack((p_mat.raw, q_mat.raw)).T.copy())
    # Once anti-diagonal s is filled, rows 0..s of diag hold e[k, s-k].
    diag = np.empty((p + 1, d))
    diag[0] = rhs.raw[:, 0]
    for s in range(1, p + 1):
        pq = mat_mul(TropMatrix._wrap(diag[:s]), pq_t).raw
        diag[1 : s + 1] = pq[:, :d]
        diag[0] = rhs.raw[:, 0]
        np.maximum(diag[:s], pq[:, d:], out=diag[:s])
    return TropMatrix._wrap(diag.T.copy())


def weighted_form_terms(
    lhs: TropMatrix,
    p_mat: TropMatrix,
    q_mat: TropMatrix,
    rhs: TropMatrix,
    p: int,
) -> dict[int, TropValue]:
    """Per-degree bilinear forms lhs . T[k, p-k] . rhs for k = 0..p."""
    columns = form_columns(p_mat, q_mat, rhs, p)
    if lhs.rows != 1 or lhs.cols != columns.rows:
        raise DimensionMismatch(
            f"form requires a 1x{columns.rows} lhs, got {lhs.shape}"
        )
    forms = mat_mul(lhs, columns)
    return {k: forms.entry(0, k) for k in range(p + 1)}
