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

Both stages use only the vector forms, through one routine,
``form_families``: it propagates the triangle on one right-hand vector by
one max-plus product per anti-diagonal, at O(n^2 p^2), and returns the
rooted families of per-degree bilinear forms read off the last
anti-diagonal.  With a zero B (stage one) the table is the chain A^k rhs,
p matrix-vector products.  From p = 30 on, the chain's families bound the
fill, which then multiplies only the rows that can still reach a family's
optimum, at O(n^2 p + n p^2) per family for the bounds and row tests plus
O(n^2) per kept row, and gives the full fill's families bit for bit.  The
matrix table (``build_table`` and the power, trace and per-degree trace
sums built on it) is library surface and the tests' reference.
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


# Order p from which form_families prunes its fill.  Full against pruned
# fill, ms per table on random_scale_instance stage two (seeds 0-2, 2-core
# x86-64, NumPy 2.4): p = 20: 0.71 / 1.41, 26: 1.33 / 1.28, 30: 1.83 / 1.61,
# 40: 5.42 / 2.25.  Break-even fell between 26 and 30 from run to run; from
# 30 on the pruned fill won in every run.
_PRUNED_FILL_FROM = 30


def form_families(
    p_mat: TropMatrix,
    q_mat: TropMatrix,
    rhs: TropMatrix,
    forms: Sequence[tuple[TropMatrix, int]],
    p: int,
) -> list[TropValue]:
    """The rooted per-degree bilinear forms of the (k, l) triangle.

    For each (lhs, o) in ``forms``, the join over k + o >= 1 of the
    (k + o)-th roots of lhs . T[k, p-k] . rhs, k = 0..p (``_rooted_join``).

    Only right-multiplied table columns are needed, so the triangle is
    propagated on vectors: e[k, l] = P e[k-1, l] + Q e[k, l-1] with
    e[k, 0] = P^k rhs and e[0, l] = rhs + Q e[0, l-1].  Anti-diagonal k + l = s
    is one ``mat_mul`` of the cells of s - 1, as rows, with [P; Q]^T, whose
    halves are P e and Q e: p products and O(n^2 p^2) scalar operations, each
    walk summed as in a cell-by-cell fill, so the result is the same to the
    bit.  The last anti-diagonal, e[k, p-k] = T[k, p-k] . rhs, gives every
    per-degree form of one lhs in one product.

    The pure-P chain lhs . P^k rhs, p products P e, is the table with Q all
    zero, same sums, same max: with Q all zero (stage one) its families are
    the result.  From p = 30 (``_PRUNED_FILL_FROM``) on, its families v bound
    the fill instead: row k of anti-diagonal s - 1, the cell
    e = T[k, s-1-k] . rhs, goes into the product for anti-diagonal s only
    when, for some family (lhs, o),

        max_j fl(e_j + U[p-s+1]_j) >= v k - tau.

    A walk of the table attains v, since the table holds the chain with the
    same sums.  U[r] bounds every completion of at most r further arcs,
    P-arcs weighted P - v and Q-arcs Q, ending in lhs - v o:

        U[0] = lhs - v o,    U[r] = U[r-1] + U[r-1] max(P - v, Q)  (max-plus),

    and tau = 8 eps (p+2)^2 M, with M the largest of 1, |v| (p+1) and the
    finite |P|, |Q|, |rhs| and |lhs|.  Rows left out are the zero element in
    the next anti-diagonal.  A family with no finite pure-P walk (v the zero
    element) bounds nothing, and then every row is kept, as below p = 30,
    where the full fill is faster.

    Why the pruned families are the full fill's to the bit.  Each float of
    the table is the max over its walks of the walk's float sum, added from
    rhs on; float addition is monotone and max is exact, so a pruned cell is
    the max over a subset of its walks, each summed as in the full fill, and
    a pruned family is at most the full one.  Let W be a walk that attains
    the full family, V = fl(fl(w) * fl(1/(K+o))) >= v, with K P-arcs and
    n <= p + 2 terms of size at most M, float sum w~ and exact sum w.  With
    u = eps/2 the unit roundoff, to first order:

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
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    if rhs.cols != 1 or rhs.rows != d:
        raise DimensionMismatch(f"form requires a {d}x1 rhs, got {rhs.shape}")
    for lhs, _ in forms:
        if lhs.rows != 1 or lhs.cols != d:
            raise DimensionMismatch(f"form requires a 1x{d} lhs, got {lhs.shape}")

    def rooted(columns: np.ndarray) -> list[TropValue]:
        # The families read off a d x (p+1) array of table columns.
        columns = TropMatrix._wrap(columns)
        return [_rooted_join(mat_mul(lhs, columns).raw[0], o) for lhs, o in forms]

    zero_q = q_mat.is_zero_matrix()
    bounded = False
    if zero_q or p >= _PRUNED_FILL_FROM:
        chain = [rhs]
        for _ in range(p):
            chain.append(mat_mul(p_mat, chain[-1]))
        lows = rooted(np.hstack([col.raw for col in chain]))
        if zero_q:
            return lows
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

    # [P; Q]^T in row-major order, so the product's inner axis is contiguous.
    pq_t = TropMatrix._wrap(np.vstack((p_mat.raw, q_mat.raw)).T.copy())
    # Once anti-diagonal s is filled, rows 0..s of diag hold e[k, s-k].
    diag = np.empty((p + 1, d))
    diag[0] = rhs.raw[:, 0]
    for s in range(1, p + 1):
        if bounded:
            reach = (diag[None, :s] + completions[p - s + 1][:, None]).max(axis=2)
            rows = np.flatnonzero((reach >= limits[:, :s]).any(axis=0))
            cells = diag[rows]
            diag[: s + 1] = -np.inf  # rows left out are the zero element
            below, above = rows, rows + 1
        else:
            cells = diag[:s]
            below, above = slice(0, s), slice(1, s + 1)
        pq = mat_mul(TropMatrix._wrap(cells), pq_t).raw
        diag[above] = pq[:, :d]
        diag[0] = rhs.raw[:, 0]
        diag[below] = np.maximum(diag[below], pq[:, d:])
    return rooted(diag.T.copy())


def _rooted_join(forms: np.ndarray, offset: int) -> TropValue:
    """Join of the (k + offset)-th roots of per-degree forms, over k + offset >= 1.

    ``forms[k]`` is the raw value lhs . T[k, p-k] . rhs, k = 0..p.  Each
    root is the float product forms[k] * (1 / (k + offset)) that ``t_pow``
    takes, and a tie keeps the lowest degree, as ``t_join`` does.
    """
    roots = forms[1 - offset :] * (1.0 / np.arange(1, len(forms) + offset))
    return TropValue.from_raw(float(roots[np.argmax(roots)]))


def _finite_abs_max(mat: TropMatrix) -> float:
    finite = mat.raw[np.isfinite(mat.raw)]
    return float(np.abs(finite).max(initial=0.0))
