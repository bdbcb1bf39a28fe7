"""Closed-form solvers for the two vector inequalities behind both stages.

``A x <= d`` has the complete solution set {x : x <= (d~ A)~} for a
column-regular A and regular d, where ``~`` is the conjugate.  The double
inequality ``A x + b <= x <= d`` has regular solutions exactly when
Delta = Tr(A) + d~ A* b is at most the unit, in which case they are the
star images A* w of parameters w in the box [b, (d~ A*)~].

The solver builds the star first and reads Tr(A) off it: when the star
converges, Tr(A) is the largest diagonal entry of A A*, and when it
diverges, the star's error carries the trace function.  A skew block
diagonal A may be passed as its two blocks (``SkewBlock``), whose star
costs one closure of the smaller block product; both scheduling stages
and the solution set are solved this way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockstar import SkewBlock, skew_star
from .errors import (
    DimensionMismatch,
    InternalConsistency,
    NotColumnRegular,
    NotRegularVector,
    StarDiverges,
)
from .linalg import (
    FEASIBILITY_TOL,
    TropMatrix,
    conjugate,
    is_column_regular,
    is_regular,
    kleene_star,
    mat_mul,
)
from .semiring import TropValue, t_add


@dataclass(frozen=True)
class BoxSolutionSet:
    """Complete regular solution set of ``A x + b <= x <= d``.

    When ``delta`` is at most the unit (within tolerance) every
    x = generator @ w with lower <= w <= upper solves the inequality, and
    there are no other regular solutions.  Otherwise there is no regular
    solution; upper is then None (generator too, when the star diverges)
    and delta carries the violating value.
    """

    generator: TropMatrix | None
    lower: TropMatrix
    upper: TropMatrix | None
    delta: TropValue

    @property
    def feasible(self) -> bool:
        return self.delta.raw <= FEASIBILITY_TOL


def _require_regular_vector(d: TropMatrix, name: str) -> None:
    if not d.is_vector:
        raise NotRegularVector(f"{name} must be a column vector, got {d.shape}")
    if not is_regular(d):
        raise NotRegularVector(f"{name} must have no zero entries")


def solve_upper_bound(a: TropMatrix, d: TropMatrix) -> TropMatrix:
    """Greatest solution x_max = (d~ A)~ of ``A x <= d``."""
    _require_regular_vector(d, "d")
    if a.rows != d.rows:
        raise DimensionMismatch(f"A has {a.rows} rows but d has {d.rows}")
    if not is_column_regular(a):
        raise NotColumnRegular("A must have no all-zero column")
    return conjugate(mat_mul(conjugate(d), a))


def solve_double_inequality(
    a: TropMatrix | SkewBlock, b: TropMatrix, d: TropMatrix
) -> BoxSolutionSet:
    """Complete solution of ``A x + b <= x <= d`` (infeasibility is data).

    A skew block diagonal A given as a SkewBlock gets its star blockwise.
    """
    skew = isinstance(a, SkewBlock)
    if not skew and a.rows != a.cols:
        raise DimensionMismatch(f"A must be square, got {a.shape}")
    order = a.order if skew else a.rows
    if not b.is_vector or b.rows != order:
        raise DimensionMismatch(f"b must be a {order}-vector, got {b.shape}")
    _require_regular_vector(d, "d")
    if d.rows != order:
        raise DimensionMismatch(f"d must be a {order}-vector, got {d.shape}")

    try:
        star = skew_star(a) if skew else kleene_star(a)
    except StarDiverges as exc:
        return BoxSolutionSet(
            generator=None, lower=b, upper=None, delta=exc.trace_value
        )
    # Tr(A) is the heaviest cycle, i.e. the largest diagonal entry of A A*.
    # A skew A has zero diagonal blocks, so only the off-diagonal blocks of
    # A and of the star's transpose pair up.
    if skew:
        p = a.B.rows
        star_t = star.raw.T
        tr_raw = max((a.B.raw + star_t[:p, p:]).max(), (a.C.raw + star_t[p:, :p]).max())
    else:
        tr_raw = (a.raw + star.raw.T).max()
    tr = TropValue.from_raw(float(tr_raw))
    d_conj_star = mat_mul(conjugate(d), star)  # 1 x n
    delta = t_add(tr, mat_mul(d_conj_star, b).entry(0, 0))
    if delta.raw > FEASIBILITY_TOL:
        return BoxSolutionSet(generator=star, lower=b, upper=None, delta=delta)
    upper = conjugate(d_conj_star)
    if not bool((b.raw <= upper.raw + FEASIBILITY_TOL).all()):
        raise InternalConsistency(
            "empty parameter box despite a feasible existence condition"
        )
    return BoxSolutionSet(generator=star, lower=b, upper=upper, delta=delta)
