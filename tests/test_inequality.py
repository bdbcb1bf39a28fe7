import itertools

import numpy as np
import pytest
from conftest import assert_close, rand_mat, rand_raw, zero_cycle_skew

from tropsched import blockstar, inequality, linalg, scheduler
from tropsched.blockstar import SkewBlock, assemble, skew_trace
from tropsched.errors import (
    DimensionMismatch,
    NotColumnRegular,
    NotRegularVector,
    StarDiverges,
)
from tropsched.inequality import solve_double_inequality, solve_upper_bound
from tropsched.instances import random_feasible_instance
from tropsched.linalg import (
    TropMatrix,
    mat_add,
    mat_mul,
    scalar_mul,
    trace_function,
)
from tropsched.semiring import TropValue


def test_upper_bound_examples():
    assert solve_upper_bound(TropMatrix.identity(2), TropMatrix.column([3, 5])) == TropMatrix.column([3, 5])
    got = solve_upper_bound(TropMatrix([[1, 0], [2, 4]]), TropMatrix.column([5, 5]))
    assert got == TropMatrix.column([3, 1])
    with pytest.raises(NotRegularVector):
        solve_upper_bound(TropMatrix.identity(2), TropMatrix.column([3, None]))
    with pytest.raises(NotColumnRegular):
        solve_upper_bound(TropMatrix([[1, None], [2, None]]), TropMatrix.column([5, 5]))


def test_upper_bound_is_greatest_solution(rng):
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rand_mat(rng, m, n, density=0.8)
        if not np.isfinite(a.raw).any(axis=0).all():
            continue
        d = rand_mat(rng, m, 1, density=1.0)
        x_max = solve_upper_bound(a, d)
        assert bool((mat_mul(a, x_max).raw <= d.raw + 1e-9).all())
        for j in range(n):
            bumped = x_max.raw.copy()
            bumped[j, 0] += 1e-6
            assert not bool(
                (mat_mul(a, TropMatrix(bumped)).raw <= d.raw + 1e-12).all()
            )


def test_double_inequality_examples():
    box = solve_double_inequality(
        TropMatrix.zeros(1, 1), TropMatrix.column([1]), TropMatrix.column([5])
    )
    assert box.feasible
    assert_close(box.delta, -4)
    assert box.generator == TropMatrix.identity(1)
    assert box.lower == TropMatrix.column([1])
    assert box.upper == TropMatrix.column([5])

    box = solve_double_inequality(
        TropMatrix([[-1]]), TropMatrix.column([0]), TropMatrix.column([3])
    )
    assert box.feasible
    assert_close(box.delta, -1)
    assert box.lower == TropMatrix.column([0])
    assert box.upper == TropMatrix.column([3])

    box = solve_double_inequality(
        TropMatrix([[1]]), TropMatrix.column([0]), TropMatrix.column([3])
    )
    assert not box.feasible
    assert_close(box.delta, 1)
    assert box.upper is None
    assert box.generator is None  # diverging star is never formed

    # Convergent star but the lower bound cannot fit under d.
    box = solve_double_inequality(
        TropMatrix([[-1]]), TropMatrix.column([5]), TropMatrix.column([3])
    )
    assert not box.feasible
    assert_close(box.delta, 2)
    assert box.generator is not None and box.upper is None


def _random_system(rng):
    n = int(rng.integers(1, 4))
    a = rand_mat(rng, n, n, density=0.7, lo=-4, hi=2)
    b = rand_mat(rng, n, 1, density=0.8, lo=-3, hi=3)
    d_arr = rand_raw(rng, n, 1, density=1.0, lo=0, hi=6)
    return a, b, TropMatrix(d_arr)


_I2 = TropMatrix.identity(2)
_V2 = TropMatrix.column([0, 1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: solve_upper_bound(_I2, _I2),
            NotRegularVector,
            "d must be a column vector, got (2, 2)",
            id="upper-bound-d-not-vector",
        ),
        pytest.param(
            lambda: solve_upper_bound(_I2, TropMatrix.column([0, 1, 2])),
            DimensionMismatch,
            "A has 2 rows but d has 3",
            id="upper-bound-rows",
        ),
        pytest.param(
            lambda: solve_double_inequality(TropMatrix([[0, 1]]), _V2, _V2),
            DimensionMismatch,
            "A must be square, got (1, 2)",
            id="double-a-not-square",
        ),
        pytest.param(
            lambda: solve_double_inequality(_I2, TropMatrix([[0, 1]]), _V2),
            DimensionMismatch,
            "b must be a 2-vector, got (1, 2)",
            id="double-b-shape",
        ),
        pytest.param(
            lambda: solve_double_inequality(_I2, _V2, TropMatrix.column([0, 1, 2])),
            DimensionMismatch,
            "d must be a 2-vector, got (3, 1)",
            id="double-d-shape",
        ),
    ],
)
def test_input_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_soundness_of_parameterization(rng):
    checked = 0
    while checked < 200:
        a, b, d = _random_system(rng)
        box = solve_double_inequality(a, b, d)
        if not box.feasible:
            continue
        checked += 1
        lo = np.where(np.isfinite(box.lower.raw), box.lower.raw, box.upper.raw - 10)
        w = lo + rng.uniform(0, 1, size=lo.shape) * np.maximum(box.upper.raw - lo, 0)
        x = mat_mul(box.generator, TropMatrix(w))
        lhs = mat_add(mat_mul(a, x), box.lower)
        assert bool((lhs.raw <= x.raw + 1e-9).all())
        assert bool((x.raw <= d.raw + 1e-9).all())


def _grid_points(lo, hi, step=0.5):
    """Every point of the grid on the box [lo, hi], as the columns of an array."""
    axes = [np.arange(l, h + 1e-9, step) for l, h in zip(lo, hi)]
    return np.array(list(itertools.product(*axes))).T


def test_completeness_and_infeasibility_on_grid(rng):
    # Every feasible grid point must land inside the parameterised family,
    # and infeasible systems must have no regular grid solution at all.
    # All grid points of a system are checked at once, as matrix columns.
    for _ in range(60):
        a, b, d = _random_system(rng)
        n = a.rows
        box = solve_double_inequality(a, b, d)
        finite = [v for v in (a.raw[np.isfinite(a.raw)].tolist() + b.raw[np.isfinite(b.raw)].tolist() + d.raw[:, 0].tolist())]
        lo = [min(finite) - 2.0] * n
        hi = [max(finite) + 2.0] * n
        points = _grid_points(lo, hi)
        ax_b = np.maximum(mat_mul(a, TropMatrix(points)).raw, b.raw)
        feasible = (ax_b <= points + 1e-9).all(axis=0) & (points <= d.raw + 1e-9).all(axis=0)
        if not feasible.any():
            continue
        assert box.feasible, "solver reported infeasible but a grid point solves it"
        x = points[:, feasible]
        # Membership: each x must sit below the box's greatest solution and
        # be recovered by the generator from its own coordinates.
        top = mat_mul(box.generator, box.upper)
        assert bool((x <= top.raw + 1e-9).all())
        w = np.maximum(x, box.lower.raw)
        regenerated = mat_mul(box.generator, TropMatrix(w))
        assert regenerated.allclose(TropMatrix(x), tol=1e-9)


def _skew_cases(rng, p, q):
    # All-zero blocks, one zero block, zero-weight cycles, and the same
    # cycles made positive by lifting every C entry.
    yield SkewBlock(TropMatrix.zeros(p, q), TropMatrix.zeros(q, p))
    yield SkewBlock(TropMatrix.zeros(p, q), zero_cycle_skew(rng, p, q).C)
    for _ in range(3):
        yield zero_cycle_skew(rng, p, q)
    sb = zero_cycle_skew(rng, p, q, density=1.0)
    yield SkewBlock(sb.B, scalar_mul(1.0, sb.C))


def test_skew_block_matches_assembled_matrix(rng):
    outcomes = set()
    for p in range(1, 6):
        for q in range(1, 6):
            for sb in _skew_cases(rng, p, q):
                b = rand_mat(rng, sb.order, 1, density=0.8, lo=-3, hi=3)
                d = TropMatrix(rand_raw(rng, sb.order, 1, density=1.0, lo=-2, hi=8))
                got = solve_double_inequality(sb, b, d)
                want = solve_double_inequality(assemble(sb), b, d)
                assert got.feasible == want.feasible
                if want.generator is None:
                    # A positive cycle: each route reports its own trace
                    # function, truncated at its own order, so the values
                    # agree only in sign; the block route's is skew_trace.
                    assert got.delta == skew_trace(sb) and got.delta.raw > 1e-9
                else:
                    assert got.delta.isclose(want.delta, tol=1e-9)
                assert got.lower == want.lower
                for mine, ref in ((got.generator, want.generator), (got.upper, want.upper)):
                    assert (mine is None) == (ref is None)
                    assert ref is None or mine.allclose(ref)
                outcomes.add((got.feasible, got.generator is not None))
    # Feasible, infeasible through the box, infeasible through a cycle.
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_trace_read_from_the_closure(rng):
    # With no lower bound, delta is Tr(A) alone.
    checked = 0
    for trial in range(300):
        if trial % 2:
            sb = zero_cycle_skew(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            a, expected = sb, skew_trace(sb)
            n = sb.order
        else:
            n = int(rng.integers(1, 6))
            raw = rand_raw(rng, n, n, density=0.7, lo=-4, hi=2)
            a = TropMatrix(raw + rng.uniform(-0.5, 0.5, size=raw.shape))
            expected = trace_function(a)
        if expected.raw > 1e-9:
            continue
        checked += 1
        box = solve_double_inequality(a, TropMatrix.zeros(n, 1), TropMatrix.column([0.0] * n))
        assert box.delta.isclose(expected, tol=1e-9)
    assert checked >= 150


def test_feasible_solve_makes_no_trace_function_calls(monkeypatch):
    inst = random_feasible_instance(np.random.default_rng(6), 6, 6)
    calls = []

    def counting(a):
        calls.append(a.shape)
        return trace_function(a)

    for mod in (linalg, blockstar, inequality, scheduler):
        if hasattr(mod, "trace_function"):
            monkeypatch.setattr(mod, "trace_function", counting)
    assert scheduler.solve(inst).status == "optimal"
    assert calls == []
    # The counter sees the call a diverging star makes.
    with pytest.raises(StarDiverges):
        linalg.kleene_star(TropMatrix([[1]]))
    assert calls == [(1, 1)]
