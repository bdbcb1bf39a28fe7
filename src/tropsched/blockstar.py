"""Trace function and Kleene star of skew block diagonal matrices.

A square matrix of order p + q with zero diagonal blocks and off-diagonal
blocks B (upper right, p x q) and C (lower left, q x p) has all its cycles
alternating between the two blocks, so its even powers are block diagonal
in (BC)^k and (CB)^k and its odd powers have zero diagonal blocks.  Trace
function and star therefore reduce to the block product of the smaller
order: the star is one closure of that product plus four block products,
cutting an (p+q)-order closure down to a min(p, q)-order one.  The
double-inequality solver takes a SkewBlock directly, and both stages of
the scheduler go through it.  A SkewBlock computes each block product at
most once, so the scheduler's Q = CB and S = BC are the products its star
closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import TropMatrix, kleene_star, mat_add, mat_mul, trace_function
from .semiring import TropValue


@dataclass(frozen=True)
class SkewBlock:
    """Off-diagonal blocks of a skew block diagonal matrix.

    B sits in the upper right (p x q), C in the lower left (q x p); the
    represented square matrix has order p + q with all-zero diagonal blocks.
    """

    B: TropMatrix
    C: TropMatrix

    def __post_init__(self):
        if self.B.rows != self.C.cols or self.B.cols != self.C.rows:
            raise DimensionMismatch(
                f"blocks must be p x q and q x p, got {self.B.shape} and {self.C.shape}"
            )

    @property
    def order(self) -> int:
        return self.B.rows + self.B.cols

    @cached_property
    def BC(self) -> TropMatrix:
        """The block product B C (p x p), computed once per block."""
        return mat_mul(self.B, self.C)

    @cached_property
    def CB(self) -> TropMatrix:
        """The block product C B (q x q), computed once per block."""
        return mat_mul(self.C, self.B)


def _from_blocks(
    ul: TropMatrix, ur: TropMatrix, ll: TropMatrix, lr: TropMatrix
) -> TropMatrix:
    return TropMatrix._wrap(np.block([[ul.raw, ur.raw], [ll.raw, lr.raw]]))


def assemble(sb: SkewBlock) -> TropMatrix:
    """Materialise the full (p+q)-order matrix (mainly for cross-checks)."""
    p, q = sb.B.shape
    return _from_blocks(TropMatrix.zeros(p, p), sb.B, sb.C, TropMatrix.zeros(q, q))


def skew_trace(sb: SkewBlock) -> TropValue:
    """Trace function of the assembled matrix, via the smaller block product.

    Only even powers have finite diagonal entries, and tr(BC)^k = tr(CB)^k,
    so the value is the join of tr(BC)^k for k = 1..min(p, q).  The sum is
    computed unconditionally: callers that need the convergence condition
    compare the result against the unit themselves, which keeps the
    violating value available for diagnostics.
    """
    p, q = sb.B.shape
    return trace_function(sb.BC if p <= q else sb.CB)


def skew_star(sb: SkewBlock) -> TropMatrix:
    """Kleene star of the assembled matrix, computed blockwise.

    Paths alternate between the blocks, so with K = (BC)* the star is
    [[K, K B], [C K, I + C K B]], and symmetrically through (CB)* when C B
    is the smaller product.  The single closure is the star of the smaller
    block product; a positive cycle raises StarDiverges carrying the trace
    function of that product, which equals ``skew_trace``.  When B or C is
    all zero there is no cycle and no path of two arcs, so the star is
    [[I, B], [C, I]] without a closure.
    """
    p, q = sb.B.shape
    if sb.B.is_zero_matrix() or sb.C.is_zero_matrix():
        return _from_blocks(TropMatrix.identity(p), sb.B, sb.C, TropMatrix.identity(q))
    if p <= q:
        ul = kleene_star(sb.BC)
        ur = mat_mul(ul, sb.B)
        ll = mat_mul(sb.C, ul)
        lr = mat_add(TropMatrix.identity(q), mat_mul(ll, sb.B))
    else:
        lr = kleene_star(sb.CB)
        ll = mat_mul(lr, sb.C)
        ur = mat_mul(sb.B, lr)
        ul = mat_add(TropMatrix.identity(p), mat_mul(ur, sb.C))
    return _from_blocks(ul, ur, ll, lr)
