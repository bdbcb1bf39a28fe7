from unittest import mock

import numpy as np
import pytest
from conftest import NEG_INF, assert_close, rand_mat, rooted, triangle_form_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsched import binomial
from tropsched.binomial import (
    binomial_power_sum,
    binomial_trace_sum,
    build_table,
    form_families,
    weighted_trace_terms,
)
from tropsched.errors import DimensionMismatch
from tropsched.linalg import TropMatrix, mat_add, mat_mul, mat_pow, scalar_mul, trace
from tropsched.oracle import (
    naive_binomial,
    naive_composition_cell,
    naive_form_term,
    naive_trace_term,
)
from tropsched.semiring import ZERO, TropValue, t_add, t_inv, t_mul, t_pow


def test_table_scalar_example():
    for a_val, b_val in [(2.0, -1.0), (-3.0, 4.0), (0.0, 0.0)]:
        table = build_table(TropMatrix([[a_val]]), TropMatrix([[b_val]]), 2)
        got = table.cell(1, 1).entry(0, 0).value
        assert got == max(a_val, a_val + b_val)


def test_table_boundaries(rng):
    a, b = rand_mat(rng, 3, 3), rand_mat(rng, 3, 3)
    table = build_table(a, b, 3)
    assert table.cell(0, 0) == TropMatrix.identity(3)
    for k in range(1, 4):
        assert table.cell(k, 0) == mat_pow(a, k)
    acc = TropMatrix.identity(3)
    for l in range(1, 4):
        acc = mat_add(acc, mat_pow(b, l))
        assert table.cell(0, l) == acc


def test_table_cell_count():
    # One addition and two products per interior cell; the triangle for
    # truncation p has (p+1)(p+2)/2 cells, which pins the quadratic growth.
    for p in (1, 2, 4):
        table = build_table(TropMatrix([[0]]), TropMatrix([[0]]), p)
        assert len(table.cells) == (p + 1) * (p + 2) // 2


def test_cells_match_composition_enumeration(rng):
    for _ in range(60):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a, b = rand_mat(rng, d, d, density=0.8), rand_mat(rng, d, d, density=0.8)
        table = build_table(a, b, p)
        for k in range(0, p + 1):
            for l in range(0, p - k + 1):
                assert table.cell(k, l).allclose(naive_composition_cell(a, b, k, l))


def test_power_sum_examples():
    a, b = TropMatrix([[2, 0], [None, 1]]), TropMatrix([[0, None], [3, -1]])
    assert binomial_power_sum(a, b, 1) == mat_add(a, b)
    z = TropMatrix.zeros(2, 2)
    acc = b
    power = b
    for _ in range(2):
        power = mat_mul(power, b)
        acc = mat_add(acc, power)
    assert binomial_power_sum(z, b, 3) == acc
    assert binomial_power_sum(TropMatrix([[0]]), TropMatrix([[-1]]), 3) == TropMatrix([[0]])


def test_power_sum_matches_naive(rng):
    for _ in range(100):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a, b = rand_mat(rng, d, d), rand_mat(rng, d, d)
        assert binomial_power_sum(a, b, p).allclose(naive_binomial(a, b, p))


def test_trace_sum_examples():
    b = TropMatrix([[-1, -3], [0, -2]])
    assert_close(binomial_trace_sum(TropMatrix.zeros(2, 2), b, 2), -1)
    a = TropMatrix([[2, 0], [1, None]])
    assert binomial_trace_sum(a, b, 1) == trace(mat_add(a, b))
    assert_close(binomial_trace_sum(TropMatrix([[0]]), TropMatrix([[None]]), 2), 0)


def test_trace_sum_matches_naive(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        a, b = rand_mat(rng, d, d), rand_mat(rng, d, d)
        direct = trace(naive_binomial(a, b, p))
        got = binomial_trace_sum(a, b, p)
        assert (got.is_zero and direct.is_zero) or got.isclose(direct)


def test_weighted_trace_terms_examples():
    p_mat, q_mat = TropMatrix([[2]]), TropMatrix([[0]])
    assert_close(weighted_trace_terms(p_mat, q_mat, 1)[1], 2)
    assert_close(weighted_trace_terms(p_mat, q_mat, 2)[1], 2)
    zero_terms = weighted_trace_terms(TropMatrix.zeros(2, 2), TropMatrix([[1, 0], [0, 1]]), 2)
    assert all(v.is_zero for v in zero_terms.values())


def test_form_families_examples():
    # The forms are -6 (k = 0) and -4 (k = 1): offset 0 roots the k = 1 form
    # alone, offset 1 joins -6 / 1 with -4 / 2.
    lhs, rhs = TropMatrix([[-6]]), TropMatrix([[0]])
    families = form_families(
        TropMatrix([[2]]), TropMatrix([[0]]), rhs, ((lhs, 0), (lhs, 1)), 1
    )
    assert_close(families[0], -4)
    assert_close(families[1], -2)
    zero_lhs = TropMatrix.zeros(1, 2)
    families = form_families(
        TropMatrix.identity(2),
        TropMatrix.identity(2),
        TropMatrix.column([0, 0]),
        ((zero_lhs, 0), (zero_lhs, 1)),
        2,
    )
    assert all(v.is_zero for v in families)


def test_terms_match_enumeration(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        p_mat, q_mat = rand_mat(rng, d, d), rand_mat(rng, d, d)
        lhs = rand_mat(rng, 1, d, density=1.0)
        rhs = rand_mat(rng, d, 1, density=1.0)
        tt = weighted_trace_terms(p_mat, q_mat, p)
        families = form_families(p_mat, q_mat, rhs, ((lhs, 0), (lhs, 1)), p)
        for k in range(1, p + 1):
            ref = naive_trace_term(p_mat, q_mat, k, p - k)
            assert (tt[k].is_zero and ref.is_zero) or tt[k].isclose(ref)
        forms = {
            k: naive_form_term(lhs, p_mat, q_mat, rhs, k, p - k) for k in range(p + 1)
        }
        for got, offset in zip(families, (0, 1)):
            ref = rooted(forms, offset)
            assert (got.is_zero and ref.is_zero) or got.isclose(ref)


@st.composite
def form_cases(draw):
    """(P, Q, rhs, forms, p): order 1..8, p up to 2d + 1, with holes, thirds
    and shifts, and one to three (lhs, offset) families.

    One draw in four has an all-zero Q, which ``form_families`` runs as a chain.
    """
    d = draw(st.integers(1, 8))
    p = draw(st.integers(1, 2 * d + 1))
    transform = draw(st.sampled_from(["integer", "thirds", "shift", "shifted_thirds"]))

    def arr(rows, cols, holes):
        size = rows * cols
        ints = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
        vals = np.array(ints, dtype=float)
        if "thirds" in transform:
            vals /= 3.0
        if "shift" in transform:
            vals += 1e9
        if holes:
            mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            vals[np.array(mask)] = NEG_INF
        return TropMatrix(vals.reshape(rows, cols))

    q_mat = TropMatrix.zeros(d, d) if draw(st.integers(0, 3)) == 0 else arr(d, d, True)
    count = draw(st.integers(1, 3))
    forms = tuple((arr(1, d, True), draw(st.integers(0, 1))) for _ in range(count))
    return arr(d, d, True), q_mat, arr(d, 1, draw(st.booleans())), forms, p


@settings(max_examples=300, deadline=None)
@given(form_cases(), st.booleans())
def test_form_families_match_triangle_loop(case, pruned):
    # Filling by anti-diagonal products changes only the order in which the
    # cells are evaluated, and pruning only drops walks below a family, so
    # every family must equal the cell loop's rooted forms bit for bit, with
    # the fill pruned from p = 1 on or not at all.
    p_mat, q_mat, rhs, forms, p = case
    cutoff = 1 if pruned else p + 1
    with mock.patch.object(binomial, "_PRUNED_FILL_FROM", cutoff):
        got = form_families(p_mat, q_mat, rhs, forms, p)
    ref = [
        rooted(triangle_form_terms(lhs, p_mat, q_mat, rhs, p), offset)
        for lhs, offset in forms
    ]
    assert [v.raw for v in got] == [v.raw for v in ref]


def test_degree_separation_reconstructs_trace_sum(rng):
    # Scaling P by theta^-1 must turn the per-degree terms back into the
    # plain truncated trace sum, for any finite theta.
    for _ in range(20):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        p_mat, q_mat = rand_mat(rng, d, d), rand_mat(rng, d, d)
        terms = weighted_trace_terms(p_mat, q_mat, p)
        degree0 = TropValue.zero()
        power = q_mat
        degree0 = trace(power)
        for _ in range(p - 1):
            power = mat_mul(power, q_mat)
            degree0 = t_add(degree0, trace(power))
        for theta_val in rng.uniform(-3.0, 3.0, size=10):
            theta = TropValue(float(theta_val))
            expected = binomial_trace_sum(scalar_mul(t_inv(theta), p_mat), q_mat, p)
            got = degree0
            for k in range(1, p + 1):
                if terms[k].is_zero:
                    continue
                got = t_add(got, t_mul(t_pow(t_inv(theta), k), terms[k]))
            assert (expected.is_zero and got.is_zero) or expected.isclose(got)


def test_dimension_errors():
    with pytest.raises(DimensionMismatch):
        build_table(TropMatrix([[1, 2]]), TropMatrix([[1]]), 2)
    with pytest.raises(DimensionMismatch):
        binomial_power_sum(TropMatrix([[1]]), TropMatrix.identity(2), 2)
    one, zero = TropMatrix([[1]]), TropMatrix([[0]])
    with pytest.raises(DimensionMismatch, match="1x1 lhs"):
        form_families(one, one, zero, ((TropMatrix([[0, 0]]), 0),), 1)
    with pytest.raises(DimensionMismatch, match="1x1 rhs"):
        form_families(one, one, TropMatrix.column([0, 0]), ((zero, 0),), 1)
    with pytest.raises(DimensionMismatch):
        form_families(one, TropMatrix.identity(2), zero, ((zero, 0),), 1)
    with pytest.raises(ValueError):
        build_table(TropMatrix([[1]]), TropMatrix([[1]]), 0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        form_families(one, one, zero, ((zero, 0),), 0)
