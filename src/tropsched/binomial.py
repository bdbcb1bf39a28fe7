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

Both stages use only the vector forms, which propagate the triangle on one
right-hand vector.  ``form_columns`` fills it by one max-plus product per
anti-diagonal, at O(n^2 p^2); a zero B (stage one) takes p products.
``pruned_form_families`` fills the same triangle but multiplies only the
rows that a bound shows can still reach a family's optimum, at O(n^2 p +
n p^2) per family for the bounds and row tests plus O(n^2) per kept row.
It returns the rooted families (``rooted_join``) themselves, bit for bit
those of the full fill, ``form_families``.  The scheduler takes it for a
coupled stage from p = 30 (``scheduler._PRUNED_FILL_FROM``), below which
the full fill is faster.  The matrix table (``build_table`` and the power,
trace and per-degree trace sums built on it) is library surface and the
tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    times it gives every per-degree bilinear form at once.  With Q all zero,
    T[k, l] = P^k: the columns are a chain of p products P e, same sums, same max.
    """
    d = _check_pair(p_mat, q_mat)
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    if rhs.cols != 1 or rhs.rows != d:
        raise DimensionMismatch(f"form requires a {d}x1 rhs, got {rhs.shape}")
    if q_mat.is_zero_matrix():
        columns = [rhs]
        for _ in range(p):
            columns.append(mat_mul(p_mat, columns[-1]))
        return TropMatrix._wrap(np.hstack([col.raw for col in columns]))
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


def rooted_join(forms: np.ndarray, offset: int) -> TropValue:
    """Join of the (k + offset)-th roots of per-degree forms, over k + offset >= 1.

    ``forms[k]`` is the raw value lhs . T[k, p-k] . rhs, k = 0..p.  Each
    root is the float product forms[k] * (1 / (k + offset)) that ``t_pow``
    takes, and a tie keeps the lowest degree, as ``t_join`` does.
    """
    roots = forms[1 - offset :] * (1.0 / np.arange(1, len(forms) + offset))
    return TropValue.from_raw(float(roots[np.argmax(roots)]))


def form_families(
    p_mat: TropMatrix,
    q_mat: TropMatrix,
    rhs: TropMatrix,
    forms: Sequence[tuple[TropMatrix, int]],
    p: int,
) -> list[TropValue]:
    """``rooted_join(lhs . form_columns(P, Q, rhs, p), offset)`` for each
    (lhs, offset) in ``forms``: the rooted families of the full fill."""
    return _rooted_forms(form_columns(p_mat, q_mat, rhs, p), forms)


def _rooted_forms(
    columns: TropMatrix, forms: Sequence[tuple[TropMatrix, int]]
) -> list[TropValue]:
    for lhs, _ in forms:
        if lhs.rows != 1 or lhs.cols != columns.rows:
            raise DimensionMismatch(
                f"form requires a 1x{columns.rows} lhs, got {lhs.shape}"
            )
    return [rooted_join(mat_mul(lhs, columns).raw[0], o) for lhs, o in forms]


def pruned_form_families(
    p_mat: TropMatrix,
    q_mat: TropMatrix,
    rhs: TropMatrix,
    forms: Sequence[tuple[TropMatrix, int]],
    p: int,
) -> list[TropValue]:
    """``form_families(P, Q, rhs, forms, p)`` from a fill that skips the rows
    that cannot reach a family's value.

    The triangle is filled by anti-diagonal as in ``form_columns``, but row k
    of anti-diagonal s - 1, the cell e = T[k, s-1-k] . rhs, goes into the
    product for anti-diagonal s only when, for some family (lhs, o),

        max_j fl(e_j + U[p-s+1]_j) >= v k - tau.

    Here v is the family's value over the pure-P walks alone, its value with
    Q all zero: the chain lhs . P^k rhs, which the table holds with the same
    sums, so a walk of the table attains v.  U[r] bounds every
    completion of at most r further arcs, P-arcs weighted P - v and Q-arcs
    Q, ending in lhs - v o:

        U[0] = lhs - v o,    U[r] = U[r-1] + U[r-1] max(P - v, Q)  (max-plus),

    and tau = 8 eps (p+2)^2 M, with M the largest of 1, |v| (p+1) and the
    finite |P|, |Q|, |rhs| and |lhs|.  Rows left out are the zero element in
    the next anti-diagonal.  A family with no finite pure-P walk (v the zero
    element) bounds nothing, and then every row is kept.

    Why the families are the full fill's to the bit.  Each float of the table
    is the max over its walks of the walk's float sum, added from rhs on;
    float addition is monotone and max is exact, so a pruned cell is the max
    over a subset of its walks, each summed as in the full fill, and a pruned
    family is at most the full one.  Let W be a walk that attains the full
    family, V = fl(fl(w) * fl(1/(K+o))) >= v, with K P-arcs and n <= p + 2
    terms of size at most M, float sum w~ and exact sum w.  With u = eps/2 the
    unit roundoff, to first order:

    - |w~ - w| <= n^2 u M (recursive summation), and the two roundings of the
      root move at most 2u |w~|, so V >= v gives w - v (K+o) >= -(n^2 + 2n) u M.
    - At a cell of W, e_j is at least W's float prefix f (by induction, every
      earlier cell of W was kept), and U[r]_j at least the float sum of W's
      completion in the shifted weights, whose terms are at most 2M in size.
      f is within n^2 u M and that sum within 2 n^2 u M of its exact value,
      and the two exact values add up to w - v (K+o) + v k.
    - The test's sum e_j + U_j and its v k - tau add at most (3n + 3) u M.

    So W's row passes with at most (4 n^2 + 5 n + 3) u M <= 6 n^2 u M
    (n >= 3) of rounding against it, against a band of tau = 16 n^2 u M that
    also covers the second-order terms: W survives whole.  A row is dropped
    only when no walk through it reaches v, so every dropped walk lies
    strictly below the family and can neither win nor tie the rounded max;
    the winning walk's sum is the full fill's own float.  The band is
    relative to M, which is what makes this hold at any magnitude: an
    absolute band, such as 1e-9 of the data's spread, is below one ulp of
    1e9-shifted sums and drops the winning walk there.
    """
    d = _check_pair(p_mat, q_mat)
    lows = form_families(p_mat, TropMatrix.zeros(d, d), rhs, forms, p)
    bounded = not any(low.is_zero for low in lows)
    if bounded:
        # Per family i: limits[i, k] = v k - tau and completions[r, i] = U[r].
        v = np.array([low.value for low in lows])
        data = max(_finite_abs_max(mat) for mat in (p_mat, q_mat, rhs))
        size = [
            max(1.0, abs(x) * (p + 1), data, _finite_abs_max(lhs))
            for x, (lhs, _) in zip(v, forms)
        ]
        tau = 8 * np.finfo(float).eps * (p + 2) ** 2 * np.array(size)
        limits = v[:, None] * np.arange(p) - tau[:, None]
        # U[r] = U[r-1] (I + max(P - v, Q)): one batched product per step.
        hops = np.maximum(p_mat.raw - v[:, None, None], q_mat.raw)
        nodes = np.arange(d)
        hops[:, nodes, nodes] = np.maximum(hops[:, nodes, nodes], 0.0)
        completions = np.empty((p + 1, len(forms), d))
        completions[0] = [lhs.raw[0] - x * o for x, (lhs, o) in zip(v, forms)]
        for r in range(1, p + 1):
            completions[r] = (completions[r - 1][:, :, None] + hops).max(axis=1)

    pq_t = TropMatrix._wrap(np.vstack((p_mat.raw, q_mat.raw)).T.copy())
    diag = rhs.raw.T  # row k holds e[k, s-k] once anti-diagonal s is filled
    for s in range(1, p + 1):
        rows = np.arange(s)
        if bounded:
            reach = (diag[None] + completions[p - s + 1][:, None]).max(axis=2)
            rows = np.flatnonzero((reach >= limits[:, :s]).any(axis=0))
        nxt = np.full((s + 1, d), -np.inf)
        if rows.size:
            pq = mat_mul(TropMatrix._wrap(diag[rows]), pq_t).raw
            nxt[rows + 1] = pq[:, :d]
            nxt[rows] = np.maximum(nxt[rows], pq[:, d:])
        nxt[0] = np.maximum(nxt[0], rhs.raw[:, 0])
        diag = nxt
    return _rooted_forms(TropMatrix._wrap(diag.T), forms)


def _finite_abs_max(mat: TropMatrix) -> float:
    finite = mat.raw[np.isfinite(mat.raw)]
    return float(np.abs(finite).max(initial=0.0))


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
