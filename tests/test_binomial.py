import numpy as np
import pytest
from conftest import NEG_INF, assert_close, rand_mat
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsched.binomial import (
    binomial_power_sum,
    binomial_trace_sum,
    build_table,
    form_columns,
    weighted_form_terms,
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


def test_weighted_form_terms_examples():
    lhs, rhs = TropMatrix([[-6]]), TropMatrix([[0]])
    terms = weighted_form_terms(lhs, TropMatrix([[2]]), TropMatrix([[0]]), rhs, 1)
    assert_close(terms[1], -4)
    assert_close(terms[0], -6)
    zero_lhs = TropMatrix.zeros(1, 2)
    terms = weighted_form_terms(
        zero_lhs, TropMatrix.identity(2), TropMatrix.identity(2), TropMatrix.column([0, 0]), 2
    )
    assert all(v.is_zero for v in terms.values())


def test_terms_match_enumeration(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        p_mat, q_mat = rand_mat(rng, d, d), rand_mat(rng, d, d)
        lhs = rand_mat(rng, 1, d, density=1.0)
        rhs = rand_mat(rng, d, 1, density=1.0)
        tt = weighted_trace_terms(p_mat, q_mat, p)
        ft = weighted_form_terms(lhs, p_mat, q_mat, rhs, p)
        for k in range(1, p + 1):
            ref = naive_trace_term(p_mat, q_mat, k, p - k)
            assert (tt[k].is_zero and ref.is_zero) or tt[k].isclose(ref)
        for k in range(0, p + 1):
            ref = naive_form_term(lhs, p_mat, q_mat, rhs, k, p - k)
            assert (ft[k].is_zero and ref.is_zero) or ft[k].isclose(ref)


def triangle_form_columns(p_mat, q_mat, rhs, p):
    """Reference: the vector triangle filled cell by cell.

    e[k, l] = P e[k-1, l] + Q e[k, l-1] with e[k, 0] = P^k rhs and
    e[0, l] = (I + Q + ... + Q^l) rhs, one matrix-vector step per term;
    column k of the result is e[k, p-k].
    """
    pw, qw = p_mat.raw, q_mat.raw
    d = pw.shape[0]
    out = np.empty((d, p + 1))
    # row[l] holds e[k, l] for the current k, l = 0..p-k.
    row = np.empty((p + 1, d))
    cur = rhs.raw[:, 0]
    row[0] = cur
    for l in range(1, p + 1):
        cur = (qw + cur).max(axis=1)
        row[l] = np.maximum(row[l - 1], cur)
    out[:, 0] = row[p]
    for k in range(1, p + 1):
        row[0] = (pw + row[0]).max(axis=1)
        for l in range(1, p - k + 1):
            row[l] = np.maximum((pw + row[l]).max(axis=1), (qw + row[l - 1]).max(axis=1))
        out[:, k] = row[p - k]
    return out


@st.composite
def form_cases(draw):
    """(P, Q, rhs, p): order 1..8, p up to 2d + 1, with holes, thirds and shifts."""
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

    return arr(d, d, True), arr(d, d, True), arr(d, 1, draw(st.booleans())), p


@settings(max_examples=300, deadline=None)
@given(form_cases())
def test_form_columns_match_triangle_loop(case):
    # Filling by anti-diagonal products changes only the order in which the
    # cells are evaluated, so every entry must equal the cell loop's bit for bit.
    p_mat, q_mat, rhs, p = case
    got = form_columns(p_mat, q_mat, rhs, p)
    assert got.shape == (p_mat.rows, p + 1)
    assert np.array_equal(got.raw, triangle_form_columns(p_mat, q_mat, rhs, p))


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
    with pytest.raises(DimensionMismatch):
        weighted_form_terms(
            TropMatrix([[0, 0]]), TropMatrix([[1]]), TropMatrix([[1]]), TropMatrix([[0]]), 1
        )
    with pytest.raises(ValueError):
        build_table(TropMatrix([[1]]), TropMatrix([[1]]), 0)
