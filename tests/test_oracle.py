import math

import numpy as np
import pytest
from conftest import assert_close, rand_mat

import tropsched as ts
from tropsched.errors import GridTooLarge, StarDiverges
from tropsched.instances import worked_example
from tropsched.linalg import TropMatrix, mat_add, mat_mul
from tropsched.oracle import (
    GridSpec,
    compositions_upto,
    grid_search_stage1,
    grid_search_stage2,
    naive_binomial,
    naive_composition_cell,
    naive_star,
)


def test_naive_star_examples():
    assert naive_star(TropMatrix([[-1, -3], [0, -2]])) == TropMatrix([[0, -3], [0, 0]])
    assert naive_star(TropMatrix.zeros(3, 3)) == TropMatrix.identity(3)
    with pytest.raises(StarDiverges):
        naive_star(TropMatrix([[0.5]]))


def test_naive_binomial_examples(rng):
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    assert naive_binomial(a, b, 1) == mat_add(a, b)
    z = TropMatrix.zeros(2, 2)
    expected = b
    power = b
    for _ in range(2):
        power = mat_mul(power, b)
        expected = mat_add(expected, power)
    assert naive_binomial(z, b, 3) == expected


def test_compositions_enumeration():
    assert sorted(compositions_upto(1, 2)) == [(0,), (1,), (2,)]
    assert sorted(compositions_upto(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(ValueError):
        naive_composition_cell(TropMatrix([[0]]), TropMatrix([[0]]), 4, 4)


def test_grid_stage1_worked():
    result = grid_search_stage1(worked_example())
    assert result.found
    assert abs(result.best.value - (-1.0)) <= 1e-6
    # argmin satisfies the original constraints
    u, v = result.u.raw[0, 0], result.v.raw[0, 0]
    assert 0 - 1e-9 <= u <= 10 + 1e-9
    assert 5 - 1e-9 <= v <= 8 + 1e-9
    assert v - 2 <= u + 1e-9


def test_grid_stage2_worked():
    inst = worked_example()
    result = grid_search_stage2(inst, ts.compute_mu(inst))
    assert result.found
    assert abs(result.best.value - 2.0) <= 1e-6


def test_grid_infeasible_instance():
    inst = ts.ProblemInstance(
        m=1,
        n=1,
        A=TropMatrix([[4]]),
        B=TropMatrix([[3]]),
        C=TropMatrix([[1]]),
        D=TropMatrix([[2]]),
        g=TropMatrix.column([0]),
        h=TropMatrix.column([2]),
        q=TropMatrix.column([5]),
        r=TropMatrix.column([8]),
    )
    result = grid_search_stage1(inst)
    assert not result.found
    assert result.best is None


def test_grid_singleton_box():
    inst = ts.ProblemInstance(
        m=1,
        n=1,
        A=TropMatrix([[4]]),
        B=TropMatrix([[3]]),
        C=TropMatrix([[1]]),
        D=TropMatrix([[20]]),
        g=TropMatrix.column([6]),
        h=TropMatrix.column([6]),
        q=TropMatrix.column([8]),
        r=TropMatrix.column([8]),
    )
    result = grid_search_stage1(inst)
    assert result.found
    assert_close(result.best, 1 + 6 - 8)  # single point evaluates exactly


def test_grid_history_non_increasing():
    result = grid_search_stage1(worked_example())
    hist = result.history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_grid_too_large():
    inst = ts.ProblemInstance(
        m=1,
        n=3,
        A=TropMatrix([[4, 4, 4]]),
        B=TropMatrix([[3, 3, 3]]),
        C=TropMatrix([[1, 1, 1]]),
        D=TropMatrix([[2, 2, 2]]),
        g=TropMatrix.column([0, 0, 0]),
        h=TropMatrix.column([300, 300, 300]),
        q=TropMatrix.column([1]),
        r=TropMatrix.column([2]),
    )
    with pytest.raises(GridTooLarge):
        grid_search_stage1(inst, GridSpec(max_evaluations=1e6))


def test_grid_size_check_matches_exact_count(rng):
    # The size check decides on the exact point count, also for grids whose
    # count is far beyond float64's range (110 axes) or unbounded.
    from tropsched.oracle import _grid_exceeds

    step = 0.5
    for dims in (1, 3, 8, 110):
        for _ in range(20):
            lo = rng.integers(-50, 50, dims).astype(float)
            hi = lo + rng.integers(0, 300, dims) / 4
            exact = math.prod(int((b - a) // step) + 2 for a, b in zip(lo, hi))
            limits = [1e6, 1e8] + ([exact, exact - 1] if exact < 2**53 else [])
            for limit in limits:
                assert _grid_exceeds(lo, hi, step, float(limit)) == (exact > limit)
        lo[0] = float("-inf")
        assert _grid_exceeds(lo, hi, step, 1e8)


def test_grid_spec_overrides_box():
    # Narrowing the search window away from the optimum worsens the best value.
    inst = worked_example()
    narrow = grid_search_stage1(inst, GridSpec(lower=np.array([8.0]), upper=np.array([10.0])))
    assert narrow.found
    assert narrow.best.value >= 1.0 - 1e-9  # u >= 8 forces lateness u - 7
