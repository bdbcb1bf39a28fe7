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
anti-diagonal.  It always starts from the pure-A chain A^k rhs, the
``linalg.walk_table`` of the rows of A^T from rhs (or a chain the caller
has already run, the scheduler batching it with its other walk tables);
with a zero B (stage one) the chain's families are the result.
Otherwise they bound the table, and three tiers look for a certificate
that no walk with a B-factor can reach a family, in which case the
chain's families are the result with no anti-diagonal product: first a
bound from the chain's largest entries and those of A and B, with no
product; then one product of the chain with B, tested against an upper
bound on every completion; and when neither certifies, the fill
multiplies only the rows that can still reach a family's optimum, at any
order.  Either way the families are the full fill's bit for bit.  The matrix table
(``build_table`` and the power, trace and per-degree trace sums built on
it) is library surface and the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .linalg import TropMatrix, mat_add, mat_mul, powers, trace, walk_table
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
    """Join of (A + B)^k for k = 1..p, assembled from the table.

    The terms with an A-factor are the cells T[k, p-k], k = 1..p, and
    those without are B, ..., B^p, the ``linalg.powers`` of B.
    """
    _check_pair(a, b)
    table = build_table(a, b, p)
    cells = (table.cell(k, p - k) for k in range(1, p + 1))
    return reduce(mat_add, chain(cells, powers(b, p)))


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


# tau = 8 eps (p+2)^2 M, the band of ``form_families``' row test.
_TAU_UNIT = 8 * np.finfo(float).eps


def form_families(
    p_mat: TropMatrix,
    q_mat: TropMatrix,
    rhs: TropMatrix,
    forms: Sequence[tuple[TropMatrix, int]],
    p: int,
    chain: np.ndarray | None = None,
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

    The pure-P chain lhs . P^k rhs is the table with Q all zero, same sums,
    same max: with Q all zero (stage one) its families are the result.
    ``chain`` holds P^k rhs in row k, k = 0..p; without it the chain is
    ``linalg.walk_table`` of the rows of P^T from rhs, whose steps reduce
    over the rows of P^T, p steps in all.  That takes the max of the same
    float sums as a row reduction of P does; only the sign of a zero max
    could depend on the order, and a float sum is -0.0 only when both terms
    are, so with no -0.0 in P no sum is -0.0.  The pipeline's P and R hold
    none (``scheduler._term_families`` says why), and it passes the chain
    from its own batched walk table.
    Otherwise the chain's families v are lower bounds: a walk of the table
    attains v, since the table holds the chain with the same sums.  Weigh
    P-arcs P - v, Q-arcs Q and the end lhs - v o: a walk of k P-arcs reaches
    its family when its weight, so shifted, is at least 0.  The rounding
    band is tau = 8 eps (p+2)^2 M, with M the largest of 1, |v| (p+1) and
    the finite |P|, |Q|, |rhs| and |lhs|.  Every walk with a Q-arc, cut
    right after its first Q-arc, ends in a cell Q P^k rhs, k < p, with k
    P-arcs and k + 1 arcs in all.  Three tiers, cheapest first, look for a
    certificate that no such walk reaches its family:

    1. The chain bound, no product.  Entry j of Q P^k rhs is at most
       max chain[k] + max Q; each of the at most p - 1 - k arcs after it
       weighs at most h = max(0, max P - v, max Q) shifted, and the end at
       most max(lhs - v o).  The table is certified when, for every family
       and every k < p,

           B[k] = (max chain[k] + max Q) + max(lhs - v o) + (p-1-k) h < v k - tau.

       On ``random_scale_instance`` every stage-two table is certified here.
    2. One product.  U[r] bounds every completion of at most r further
       arcs, in the shifted weights:

           U[0] = lhs - v o,    U[r] = U[r-1] + U[r-1] max(P - v, Q)  (max-plus),

       one ``walk_table`` for all families (the identity joined on each
       diagonal of max(P - v, Q)), and a cell e of k P-arcs and s arcs in
       all passes the row test for a family when

           max_j fl(e_j + U[p-s]_j) >= v k - tau.

       One product of the chain's first p cells with Q^T gives every cell
       Q P^k rhs, and the table is certified when each of them fails the
       row test for every family.  Tier 1 replaces the cell and U by their
       largest entries, so it certifies fewer tables: on small
       ``random_feasible_instance`` tables about a third of these.
    3. The pruned fill.  Row k of anti-diagonal s - 1, the cell
       T[k, s-1-k] . rhs, goes into the product for anti-diagonal s only
       when it passes the row test for some family, and rows left out are
       the zero element in the next anti-diagonal.  A family with no finite
       pure-P walk (v the zero element) bounds nothing: no tier certifies,
       and every row is kept.  The pruned fill is taken at any p: with the
       chain and the completions paid, it costs about what the full fill
       does on tables it does not certify.

    A certified table returns the chain's families, with no anti-diagonal
    product.

    Why the certified and the pruned families are the full fill's to the
    bit.  Each float of the table is the max over its walks of the walk's
    float sum, added from rhs on; float addition is monotone and max is
    exact, so a pruned cell is the max over a subset of its walks, each
    summed as in the full fill, and a pruned family is at most the full one.
    Let W be a walk that attains the full family, V = fl(fl(w) * fl(1/(K+o)))
    >= v, with K P-arcs and n <= p + 2 terms of size at most M, float sum w~
    and exact sum w.  With u = eps/2 the unit roundoff, to first order:

    - |w~ - w| <= n^2 u M (recursive summation), and the two roundings of the
      root move at most 2u |w~|, so V >= v gives w - v (K+o) >= -(n^2 + 2n) u M.
    - At a cell of W, e_j is at least W's float prefix f (by induction, every
      earlier cell of W was kept; the certificate's cell Q P^k rhs holds every
      such prefix), and U[r]_j at least the float sum of W's completion in
      the shifted weights, whose terms are at most 2M in size.  f is within
      n^2 u M and that sum within 2 n^2 u M of its exact value, and the two
      exact values add up to w - v (K+o) + v k.
    - The test's sum e_j + U_j and its v k - tau add at most (3n + 3) u M.

    So W's row passes with at most (4 n^2 + 5 n + 3) u M <= 6 n^2 u M
    (n >= 3) of rounding against it, against a band of tau = 16 n^2 u M that
    also covers the second-order terms: W survives whole, and a walk with a
    Q-arc that attains its family passes the test at the cell after its
    first Q-arc.

    The chain bound needs no float U.  Let W have a Q-arc, k P-arcs before
    its first one.  In exact arithmetic w - v (K+o) + v k is at most B[k]
    with W's exact prefix in place of max chain[k]: each later arc and the
    end are at most what B counts for them, and h >= 0 covers the arcs W
    does not take.  max chain[k] is at least W's float prefix, within n^2 u M
    of the exact one.  The rest of B is rounded in max P - v and lhs - v o
    (at most 2u M each, the first counted p - 1 - k times), in the product
    by p - 1 - k (at most 2 (p-1-k) u M), in three additions of sizes at
    most (k+2) M, (k+4) M and (2p+2-k) M, and in v k - tau (2u M): at most
    7n u M in all.  So W's B[k] is at least v k - tau with at most
    (2 n^2 + 9 n) u M <= 5 n^2 u M (n >= 3) of rounding against it, inside
    the 6 n^2 u M the band was sized for: tau does not move.

    A row is dropped, or a table certified, only when no walk through it
    reaches v, so every dropped walk lies strictly below the family and can
    neither win nor tie the rounded max; the winning walk's sum is the full
    fill's own float.  The band is relative to M, which is what makes this
    hold at any magnitude: an absolute band, such as 1e-9 of the data's
    spread, is below one ulp of 1e9-shifted sums and drops the winning walk
    there.
    """
    d = _check_pair(p_mat, q_mat)
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    if rhs.cols != 1 or rhs.rows != d:
        raise DimensionMismatch(f"form requires a {d}x1 rhs, got {rhs.shape}")
    for lhs, _ in forms:
        if lhs.rows != 1 or lhs.cols != d:
            raise DimensionMismatch(f"form requires a 1x{d} lhs, got {lhs.shape}")

    ends = np.concatenate([lhs.raw for lhs, _ in forms])  # one lhs per row
    offsets = [o for _, o in forms]

    def rooted(columns: np.ndarray) -> list[TropValue]:
        # The families read off a d x (p+1) array of table columns.
        values = (ends[:, :, None] + columns).max(axis=1)
        return [_rooted_join(row, o) for row, o in zip(values, offsets)]

    if chain is None:  # chain[k] = P^k rhs: the walk table of the rows of P^T
        chain = walk_table(p_mat.raw.T[None].copy(), rhs.raw.T, p)[:, 0]
    elif chain.shape != (p + 1, d):
        raise DimensionMismatch(f"chain must be {p + 1}x{d}, got {chain.shape}")
    lows = rooted(chain.T)
    if q_mat.is_zero_matrix():
        return lows
    bounded = not any(low.is_zero for low in lows)
    if bounded:
        # Per family i: limits[i, k] = v k - tau and completions[r, i] = U[r].
        v = np.array([low.value for low in lows])
        size = np.abs(v) * (p + 1)
        data = _finite_abs_max(np.concatenate((p_mat.raw, q_mat.raw, rhs.raw.T)))
        np.maximum(size, np.maximum(data, _finite_abs_max(ends, axis=1)), out=size)
        tau = _TAU_UNIT * (p + 2) ** 2 * np.maximum(size, 1.0)
        limits = v[:, None] * np.arange(p) - tau[:, None]
        tails = ends - (v * offsets)[:, None]  # lhs - v o
        # Tier 1, the chain bound B[i, k]: the cell Q P^k rhs is at most
        # max chain[k] + max Q, each of the p - 1 - k arcs after it at most
        # h = max(0, max P - v, max Q) and the end max(lhs - v o).
        q_top = q_mat.raw.max()
        h = np.maximum(p_mat.raw.max() - v, max(q_top, 0.0))
        bound = (chain[:p].max(axis=1) + q_top) + tails.max(axis=1)[:, None]
        bound += np.arange(p - 1, -1, -1) * h[:, None]
        if (bound < limits).all():
            return lows
        # Tier 2.  U[r] = U[r-1] (I + max(P - v, Q)): one walk table for all
        # families.
        hops = np.empty((len(forms), d, d))
        np.maximum(p_mat.raw - v[:, None, None], q_mat.raw, out=hops)
        loops = hops.reshape(len(forms), d * d)[:, :: d + 1]  # diagonals, a view
        np.maximum(loops, 0.0, out=loops)
        completions = walk_table(hops, tails, p)
        # The product certificate: row k of first_q is Q P^k rhs, k P-arcs and
        # k + 1 arcs in all, so its completions are U[p-1-k].
        first_q = mat_mul(TropMatrix._wrap(chain[:p]), TropMatrix._wrap(q_mat.raw.T.copy()))
        reach = (first_q.raw[:, None] + completions[p - 1 :: -1]).max(axis=2)
        if (reach < limits.T).all():
            return lows

    # Tier 3.  [P; Q]^T in row-major order, so the product's inner axis is
    # contiguous.
    pq_t = TropMatrix._wrap(np.vstack((p_mat.raw, q_mat.raw)).T.copy())
    # Once anti-diagonal s is filled, rows 0..s of diag hold e[k, s-k].
    diag = np.empty((p + 1, d))
    diag[0] = rhs.raw[:, 0]
    for s in range(1, p + 1):
        # With every row kept, rows are slices: cheaper than an index array.
        rows, above = slice(0, s), slice(1, s + 1)
        if bounded:
            reach = (diag[None, :s] + completions[p - s + 1][:, None]).max(axis=2)
            kept = np.flatnonzero((reach >= limits[:, :s]).any(axis=0))
            if kept.size < s:
                rows, above = kept, kept + 1
        pq = mat_mul(TropMatrix._wrap(diag[rows]), pq_t).raw
        if not isinstance(rows, slice):
            diag[: s + 1] = -np.inf  # rows left out are the zero element
        diag[above] = pq[:, :d]
        diag[0] = rhs.raw[:, 0]
        diag[rows] = np.maximum(diag[rows], pq[:, d:])
    return rooted(diag.T)


def _rooted_join(forms: np.ndarray, offset: int) -> TropValue:
    """Join of the (k + offset)-th roots of per-degree forms, over k + offset >= 1.

    ``forms[k]`` is the raw value lhs . T[k, p-k] . rhs, k = 0..p.  Each
    root is the float product forms[k] * (1 / (k + offset)) that ``t_pow``
    takes, and a tie keeps the lowest degree, as ``t_join`` does.
    """
    roots = forms[1 - offset :] * (1.0 / np.arange(1, len(forms) + offset))
    return TropValue.from_raw(float(roots[np.argmax(roots)]))


def _finite_abs_max(raw: np.ndarray, axis: int | None = None) -> np.ndarray:
    # The largest finite |entry|, 0 where there is none: -inf is the only
    # non-finite entry, and its absolute value is the one left out.
    size = np.abs(raw)
    return size.max(axis=axis, where=size != np.inf, initial=0.0)
