"""Instance builders: the worked 1x1 example and seeded random generators."""

from __future__ import annotations

import numpy as np

from .linalg import TropMatrix
from .scheduler import ProblemInstance, solve

_NEG_INF = float("-inf")


def worked_example() -> ProblemInstance:
    """The 1x1 instance used as the golden fixture throughout the tests."""
    return ProblemInstance(
        m=1,
        n=1,
        A=TropMatrix([[4]]),
        B=TropMatrix([[3]]),
        C=TropMatrix([[1]]),
        D=TropMatrix([[2]]),
        g=TropMatrix.column([0]),
        h=TropMatrix.column([10]),
        q=TropMatrix.column([5]),
        r=TropMatrix.column([8]),
    )


def _from_arrays(a, b, c, d, g, h, q, r) -> ProblemInstance:
    """Instance from m x n lag arrays and the four bound vectors."""
    m, n = a.shape
    return ProblemInstance(
        m=m,
        n=n,
        A=TropMatrix(a),
        B=TropMatrix(b),
        C=TropMatrix(c),
        D=TropMatrix(d),
        g=TropMatrix.column(g),
        h=TropMatrix.column(h),
        q=TropMatrix.column(q),
        r=TropMatrix.column(r),
    )


def _random_lags(
    rng: np.random.Generator,
    m: int,
    n: int,
    low: int,
    high: int,
    density: float,
    ensure_nonzero: bool,
) -> np.ndarray:
    vals = rng.integers(low, high + 1, size=(m, n)).astype(float)
    mask = rng.random((m, n)) < density
    out = np.where(mask, vals, _NEG_INF)
    if ensure_nonzero and not np.isfinite(out).any():
        i, j = rng.integers(0, m), rng.integers(0, n)
        out[i, j] = float(rng.integers(low, high + 1))
    return out


def random_instance(
    rng: np.random.Generator,
    m: int,
    n: int,
    *,
    lag_low: int = -4,
    lag_high: int = 4,
    density: float = 0.85,
    box_width: int = 6,
    tame_second_stage: bool = False,
) -> ProblemInstance:
    """Integer-data instance with nonempty boxes; feasibility not guaranteed.

    With tame_second_stage the second project's due-date-start lags dominate
    the first project's, which makes the stage-two trace condition hold
    automatically once stage one is solvable.
    """
    a = _random_lags(rng, m, n, lag_low, lag_high, density, True)
    b = _random_lags(rng, m, n, lag_low, lag_high, density, False)
    c = _random_lags(rng, m, n, lag_low, lag_high, density, True)
    d = _random_lags(rng, m, n, lag_low, lag_high, density, False)
    if tame_second_stage:
        # Derive B from D so the combined due-date-start conjugate equals
        # the first project's; the stage-two trace condition then follows
        # from stage-one solvability.
        bump = rng.integers(0, 3, size=(m, n)).astype(float)
        b = np.where(np.isfinite(d), d + bump, _NEG_INF)
    g = rng.integers(-2, 3, size=n).astype(float)
    h = g + rng.integers(2, box_width + 1, size=n)
    q = rng.integers(0, 5, size=m).astype(float)
    r = q + rng.integers(2, box_width + 1, size=m)
    return _from_arrays(a, b, c, d, g, h, q, r)


def random_feasible_instance(
    rng: np.random.Generator,
    m: int,
    n: int,
    *,
    max_tries: int = 200,
    **kwargs,
) -> ProblemInstance:
    """Rejection-sample until both stages are feasible.

    The first half of the budget draws with ``kwargs``, the second half is
    biased towards feasibility.  Once the budget is spent, up to max_tries
    more draws also widen the boxes: stage one fails only where some
    worker's latest start h_j is below q_i - D_ij, which wide worker boxes
    make rare.
    """
    biased = dict(kwargs, tame_second_stage=True)
    biased["box_width"] = max(8, int(biased.get("box_width", 6)))
    wide = dict(biased, box_width=max(1000, biased["box_width"]))
    for attempt in range(2 * max_tries):
        if attempt < max_tries // 2:
            opts = kwargs
        elif attempt < max_tries:
            opts = biased
        else:
            opts = wide
        inst = random_instance(rng, m, n, **opts)
        if solve(inst).status == "optimal":
            return inst
    raise RuntimeError(f"no feasible instance found in {2 * max_tries} tries")


def random_scale_instance(rng: np.random.Generator, m: int, n: int) -> ProblemInstance:
    """Large feasible instance: dominating second-project lags, wide boxes."""
    d = rng.integers(1, 9, size=(m, n)).astype(float)
    b = d + rng.integers(0, 4, size=(m, n))
    c = rng.integers(-4, 5, size=(m, n)).astype(float)
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    g = rng.integers(0, 4, size=n).astype(float)
    h = g + 1000.0
    q = rng.integers(0, 4, size=m).astype(float)
    r = q + 1000.0
    return _from_arrays(a, b, c, d, g, h, q, r)
