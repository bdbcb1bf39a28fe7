import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    NEG_INF,
    assert_close,
    enumerate_cycle_means,
    rand_mat,
    rand_raw,
    reference_mat_mul,
    zero_cycle_skew,
)
from hypothesis import given
from hypothesis import strategies as st

import tropsched
from tropsched import binomial, blockstar, inequality, linalg, scheduler
from tropsched.binomial import binomial_power_sum, build_table, form_families
from tropsched.blockstar import SkewBlock, skew_star
from tropsched.errors import (
    DimensionMismatch,
    NotAVector,
    NotSquare,
    StarDiverges,
    TropicalError,
    ZeroMatrix,
)
from tropsched.instances import random_feasible_instance, random_instance, random_scale_instance
from tropsched.io_cli import dumps_report, report_to_dict
from tropsched.linalg import (
    TropMatrix,
    conjugate,
    is_column_regular,
    is_regular,
    kleene_star,
    mat_add,
    mat_mul,
    mat_pow,
    max_cycle_mean,
    powers,
    scalar_mul,
    spectral_radius,
    spectral_radius_via_traces,
    trace,
    trace_function,
    walk_table,
)
from tropsched.oracle import naive_binomial
from tropsched.scheduler import solve
from tropsched.semiring import ZERO, TropValue, t_add, t_inv, t_pow

A_SQUARE = TropMatrix([[-1, -3], [0, -2]])


def test_construction_rejects_bad_payloads():
    with pytest.raises(ValueError):
        TropMatrix([[float("nan")]])
    with pytest.raises(ValueError):
        TropMatrix([[float("inf")]])
    with pytest.raises(DimensionMismatch):
        TropMatrix(np.zeros((0, 2)))


def test_entry_round_trip():
    m = TropMatrix([[1, None], [2.5, 3]])
    assert m.entry(0, 1) == ZERO
    assert m.entry(1, 0) == TropValue(2.5)
    assert m.to_rows() == [[1.0, None], [2.5, 3.0]]


def test_mat_add_examples():
    a = TropMatrix([[1, 2], [3, 4]])
    b = TropMatrix([[4, 1], [0, 5]])
    assert mat_add(a, b) == TropMatrix([[4, 2], [3, 5]])
    assert mat_add(a, TropMatrix.zeros(2, 2)) == a
    assert mat_add(a, a) == a
    with pytest.raises(DimensionMismatch):
        mat_add(a, TropMatrix([[1, 2]]))


def test_mat_mul_examples():
    assert mat_mul(TropMatrix.identity(2), A_SQUARE) == A_SQUARE
    assert mat_mul(A_SQUARE, A_SQUARE) == TropMatrix([[-2, -4], [-1, -3]])
    assert mat_mul(TropMatrix.zeros(2, 2), A_SQUARE) == TropMatrix.zeros(2, 2)
    with pytest.raises(DimensionMismatch):
        mat_mul(A_SQUARE, TropMatrix([[1], [2], [3]]))


def test_mat_mul_matches_triple_loop(rng):
    for _ in range(50):
        r, k, c = rng.integers(1, 6, size=3)
        a = rand_mat(rng, int(r), int(k), density=0.7)
        b = rand_mat(rng, int(k), int(c), density=0.7)
        assert mat_mul(a, b) == reference_mat_mul(a, b)


def test_mat_mul_blocked_matches_unblocked(rng, monkeypatch):
    # Non-integer data, so a reordered reduction would show in the bits.
    shapes = [(13, 3, 1), (7, 5, 9), (1, 6, 4), (4, 11, 6), (20, 2, 2)]
    cases = []
    for r, k, c in shapes:
        a = TropMatrix(rand_mat(rng, r, k, density=0.7).raw / 3.0)
        b = TropMatrix(rand_mat(rng, k, c, density=0.7).raw / 7.0)
        cases.append((a, b, mat_mul(a, b)))
    # Every product stays referenced until the end, so no freed buffer that
    # a blocked product's output reuses can already hold the right values.
    blocked = []
    for limit in (1, 8, 20):
        monkeypatch.setattr(linalg, "_MATMUL_BLOCK_LIMIT", limit)
        for a, b, whole in cases:
            assert a.rows * a.cols * b.cols > limit  # the blocked branch runs
            blocked.append((mat_mul(a, b), whole))
    for out, whole in blocked:
        assert np.array_equal(out.raw, whole.raw)


def _bits(x: np.ndarray) -> tuple:
    # Shape and bytes in row-major order: -0.0 and 0.0 differ here.
    return x.shape, np.ascontiguousarray(x).tobytes()


def _layouts(raw: np.ndarray) -> dict[str, np.ndarray]:
    """The same entries in row-major, column-major and non-contiguous storage."""
    rows, cols = raw.shape
    padded = np.full((rows + 2, cols + 3), 7.0)
    padded[1:-1, 2:-1] = raw
    return {
        "C": np.ascontiguousarray(raw),
        "F": np.asfortranarray(raw),
        "T view": np.ascontiguousarray(raw.T).T,
        "block": padded[1:-1, 2:-1],
        "strided": np.repeat(raw, 2, axis=1)[:, ::2],
    }


def _layout_cases(rng):
    # Non-integer entries with holes; r, k or c equal to 1; a row of the
    # left operand and a column of the right one made of the zero element.
    shapes = [(1, 1, 1), (1, 5, 4), (4, 1, 3), (3, 4, 1), (1, 1, 6), (5, 3, 2), (2, 7, 5), (6, 2, 6)]
    for r, k, c in shapes:
        a = rand_raw(rng, r, k, density=0.8) / 3.0
        b = rand_raw(rng, k, c, density=0.8) / 7.0
        if r > 1:
            a[int(rng.integers(r))] = NEG_INF
        if c > 1:
            b[:, int(rng.integers(c))] = NEG_INF
        yield a, b


def _check_layouts(cases):
    for a, b in cases:
        expected = _bits(reference_mat_mul(TropMatrix(a), TropMatrix(b)).raw)
        for wa in _layouts(a).values():
            for wb in _layouts(b).values():
                out = mat_mul(TropMatrix._wrap(wa), TropMatrix._wrap(wb)).raw
                assert out.flags.c_contiguous
                assert _bits(out) == expected


def test_mat_mul_layouts_match_reference(rng):
    _check_layouts(list(_layout_cases(rng)))


def test_mat_mul_blocked_layouts_match_reference(rng, monkeypatch):
    cases = list(_layout_cases(rng))
    for limit in (1, 8):
        monkeypatch.setattr(linalg, "_MATMUL_BLOCK_LIMIT", limit)
        _check_layouts(cases)


def test_mat_mul_star_block_operand(rng):
    # A diagonal block of a star, as the scheduler passes it: a view into
    # the star's storage, with non-integer entries.
    sb = zero_cycle_skew(rng, 4, 3)
    star = skew_star(SkewBlock(TropMatrix(sb.B.raw / 3.0), TropMatrix(sb.C.raw / 3.0))).raw
    for block, other in ((star[:4, :4], rand_raw(rng, 4, 5) / 7.0), (star[4:, 4:], rand_raw(rng, 3, 3) / 7.0)):
        assert not block.flags.c_contiguous
        for wb in _layouts(other).values():
            out = mat_mul(TropMatrix._wrap(block), TropMatrix._wrap(wb)).raw
            expected = reference_mat_mul(TropMatrix(block), TropMatrix(other)).raw
            assert out.flags.c_contiguous and _bits(out) == _bits(expected)


@pytest.mark.parametrize("r, k, c", [(3, 4, 0), (0, 4, 3), (0, 2, 0)])
def test_mat_mul_empty_sides(r, k, c):
    # The scheduler multiplies by no columns when no schedule is regular,
    # and form tables by no rows when every row is pruned.
    a = TropMatrix._wrap(np.zeros((r, k)))
    b = TropMatrix._wrap(np.zeros((k, c)))
    out = mat_mul(a, b).raw
    assert out.shape == (r, c) and out.flags.c_contiguous


def test_scalar_mul():
    a = TropMatrix([[1, None]])
    assert scalar_mul(TropValue(0), a) == a
    assert scalar_mul(TropValue(2), a) == TropMatrix([[3, None]])
    assert scalar_mul(TropValue(-1), TropMatrix([[3]])) == TropMatrix([[2]])
    assert scalar_mul(ZERO, a) == TropMatrix.zeros(1, 2)


def test_conjugate():
    assert conjugate(TropMatrix([[1, None], [2, 3]])) == TropMatrix([[-1, -2], [None, -3]])
    assert conjugate(TropMatrix.column([2, 5])) == TropMatrix([[-2, -5]])
    with pytest.raises(ZeroMatrix):
        conjugate(TropMatrix([[None]]))


def test_conjugate_row_major_with_old_bits(rng):
    # The formula before the row-major output: np.where on the transposed
    # view, then -0.0 cleared.
    for rows, cols in ((1, 1), (1, 6), (5, 1), (4, 7), (7, 4)):
        raw = rand_raw(rng, rows, cols, density=0.7) / 3.0
        raw[0, 0] = 0.0
        raw[-1, -1] = -0.0
        at = raw.T
        expected = np.where(np.isfinite(at), -at, NEG_INF) + 0.0
        for layout in _layouts(raw).values():
            out = conjugate(TropMatrix._wrap(layout)).raw
            assert out.flags.c_contiguous
            assert _bits(out) == _bits(expected)
            assert not (np.signbit(out) & (out == 0.0)).any()


def test_construction_stores_row_major(rng):
    raw = rand_raw(rng, 4, 6) / 3.0
    for layout in _layouts(raw).values():
        data = TropMatrix(layout).raw
        assert data.flags.c_contiguous and _bits(data) == _bits(raw)


def test_trace():
    assert_close(trace(A_SQUARE), -1)
    assert_close(trace(TropMatrix.identity(3)), 0)
    assert trace(TropMatrix.zeros(2, 2)) == ZERO
    with pytest.raises(NotSquare):
        trace(TropMatrix([[1, 2]]))


def test_trace_function():
    assert_close(trace_function(A_SQUARE), -1)
    assert_close(trace_function(TropMatrix([[1]])), 1)
    assert trace_function(TropMatrix.zeros(2, 2)) == ZERO


def _signed_thirds(rng, n):
    # Thirds with zero-element holes; half of the zero entries are -0.0.
    raw = rand_raw(rng, n, n, lo=-3, hi=3) / 3
    raw[(raw == 0.0) & (rng.random(raw.shape) < 0.5)] = -0.0
    return TropMatrix(raw)


def _same_bits(x: TropMatrix, y: TropMatrix) -> bool:
    return x.shape == y.shape and bool((x.raw.view(np.int64) == y.raw.view(np.int64)).all())


def _value_bits(v: TropValue) -> int:
    return int(np.float64(v.raw).view(np.int64))


def _power_chain(a, k):
    # A, A A, (A A) A, ...: k powers, each product written out.
    out = [a]
    while len(out) < k:
        out.append(mat_mul(out[-1], a))
    return out


def test_powers_left_multiply_from_a_itself(rng, monkeypatch):
    for n in (1, 2, 3, 5):
        a = _signed_thirds(rng, n)
        drawn = list(powers(a, 4))
        assert len(drawn) == 4 and drawn[0] is a
        for prev, power in zip(drawn, drawn[1:]):
            assert _same_bits(power, mat_mul(prev, a))
    assert list(powers(a, 0)) == []
    # No product by the identity: I A would turn the -0.0 into 0.0.
    minus_zero = TropMatrix([[-0.0]])
    assert np.signbit(next(powers(minus_zero, 1)).raw[0, 0])
    assert not np.signbit(mat_mul(TropMatrix.identity(1), minus_zero).raw[0, 0])
    # k powers take k - 1 products, each only when its power is drawn.
    calls = []

    def counting(x, y):
        calls.append(1)
        return mat_mul(x, y)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    drawn = powers(a, 3)
    assert [len(calls) for _ in drawn] == [0, 1, 2] and len(calls) == 2


def test_power_sums_match_an_explicit_chain(rng):
    # Each caller of ``powers`` against its sum written out as a loop over
    # an explicit chain, to the bit: trace_function and the trace-formula
    # radius at n = 1..4, the two binomial sums at p = 1..3.
    mats = [TropMatrix([[-0.0]]), TropMatrix([[1 / 3]])]
    mats += [_signed_thirds(rng, n) for n in (1, 2, 3, 4) for _ in range(8)]
    negative_zeros = 0
    for a in mats:
        negative_zeros += int(np.signbit(a.raw).sum() - (a.raw < 0).sum())
        chain = _power_chain(a, a.rows)
        expected = trace(chain[0])
        for power in chain[1:]:
            expected = t_add(expected, trace(power))
        assert _value_bits(trace_function(a)) == _value_bits(expected)
        expected = ZERO
        for k, power in enumerate(chain, 1):
            if not trace(power).is_zero:
                expected = t_add(expected, t_pow(trace(power), 1.0 / k))
        assert _value_bits(spectral_radius_via_traces(a)) == _value_bits(expected)
        b = _signed_thirds(rng, a.rows)
        for p in (1, 2, 3):
            s = mat_add(a, b)
            expected = s
            for power in _power_chain(s, p)[1:]:
                expected = mat_add(expected, power)
            assert _same_bits(naive_binomial(a, b, p), expected)
            table = build_table(a, b, p)
            expected = table.cell(1, p - 1)
            for k in range(2, p + 1):
                expected = mat_add(expected, table.cell(k, p - k))
            for power in _power_chain(b, p):
                expected = mat_add(expected, power)
            assert _same_bits(binomial_power_sum(a, b, p), expected)
    assert negative_zeros > 0
    assert np.signbit(trace_function(TropMatrix([[-0.0]])).raw)


_WIDE = TropMatrix([[1, 2]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: trace_function(_WIDE),
            NotSquare,
            "trace function requires a square matrix, got (1, 2)",
            id="trace_function",
        ),
        pytest.param(
            lambda: mat_pow(A_SQUARE, -1),
            ValueError,
            "exponent must be a nonnegative integer",
            id="mat_pow-exponent",
        ),
        pytest.param(
            lambda: kleene_star(_WIDE),
            NotSquare,
            "star requires a square matrix, got (1, 2)",
            id="kleene_star",
        ),
        pytest.param(
            lambda: spectral_radius(_WIDE),
            NotSquare,
            "spectral radius requires a square matrix, got (1, 2)",
            id="spectral_radius",
        ),
        pytest.param(
            lambda: spectral_radius_via_traces(_WIDE),
            NotSquare,
            "spectral radius requires a square matrix, got (1, 2)",
            id="spectral_radius_via_traces",
        ),
        pytest.param(
            lambda: naive_binomial(A_SQUARE, TropMatrix.identity(3), 2),
            DimensionMismatch,
            "square matrices of equal order required, got (2, 2) and (3, 3)",
            id="naive_binomial-orders",
        ),
        pytest.param(
            lambda: naive_binomial(_WIDE, _WIDE, 2),
            DimensionMismatch,
            "square matrices of equal order required, got (1, 2) and (1, 2)",
            id="naive_binomial-not-square",
        ),
        pytest.param(
            lambda: naive_binomial(A_SQUARE, A_SQUARE, 0),
            ValueError,
            "truncation order p must be >= 1",
            id="naive_binomial-order",
        ),
        pytest.param(
            lambda: form_families(
                A_SQUARE,
                A_SQUARE,
                TropMatrix.column([0, 0]),
                [(TropMatrix([[0, 0]]), 0)],
                2,
                chain=np.zeros((2, 2)),
            ),
            DimensionMismatch,
            "chain must be 3x2, got (2, 2)",
            id="form_families-chain",
        ),
    ],
)
def test_algebra_guards_raise(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_kleene_star_examples():
    assert kleene_star(A_SQUARE) == TropMatrix([[0, -3], [0, 0]])
    assert kleene_star(TropMatrix.zeros(3, 3)) == TropMatrix.identity(3)
    with pytest.raises(StarDiverges) as exc_info:
        kleene_star(TropMatrix([[1]]))
    assert_close(exc_info.value.trace_value, 1)


def test_mat_pow():
    assert mat_pow(A_SQUARE, 0) == TropMatrix.identity(2)
    assert mat_pow(A_SQUARE, 1) == A_SQUARE
    assert mat_pow(A_SQUARE, 2) == TropMatrix([[-2, -4], [-1, -3]])
    with pytest.raises(NotSquare):
        mat_pow(TropMatrix([[1, 2]]), 2)


def test_is_regular():
    assert is_regular(TropMatrix.column([2, 5]))
    assert not is_regular(TropMatrix.column([2, None]))
    assert not is_regular(TropMatrix.column([None]))
    with pytest.raises(NotAVector):
        is_regular(TropMatrix([[1, 2]]))
    assert is_column_regular(TropMatrix([[1, None], [None, 2]]))
    assert not is_column_regular(TropMatrix([[1, None], [2, None]]))


def test_spectral_radius_examples():
    assert_close(spectral_radius(A_SQUARE), -1)
    assert spectral_radius(TropMatrix([[None, 1], [None, None]])) == ZERO
    assert_close(spectral_radius(TropMatrix([[3.5]])), 3.5)


def _chain(n, weight):
    """Acyclic chain 0 -> 1 -> ... -> n-1 of n - 1 arcs."""
    w = np.full((n, n), NEG_INF)
    w[np.arange(n - 1), np.arange(1, n)] = weight
    return w


def _block_triangular(source, sink, link):
    """Digraph whose source block feeds its sink block through `link` only."""
    p, q = len(source), len(sink)
    w = np.full((p + q, p + q), NEG_INF)
    w[:p, :p], w[p:, p:], w[:p, p:] = source, sink, link
    return w


def _multi_component_cases(rng):
    """Digraphs with several strongly connected components (raw arrays)."""
    hot = [[4.0, -1.0], [2.0, NEG_INF]]  # heaviest cycle: the loop, mean 4
    cold = [[NEG_INF, 3.0, NEG_INF], [NEG_INF, NEG_INF, -2.0], [1.0, NEG_INF, 0.0]]
    link = np.full((2, 3), NEG_INF)
    link[1, 0] = 50.0  # heavy arcs between components lie on no cycle
    cases = [
        _block_triangular(hot, cold, link),  # heaviest cycle in the source
        _block_triangular(cold, hot, link.T),  # heaviest cycle in the sink
        np.array([[1.0]]),
        np.array([[NEG_INF]]),
        np.diag([-3.0, NEG_INF, 7.0, 2.0, NEG_INF]),  # disjoint self-loops
        np.diag([-3.0, NEG_INF, -1.0]),
    ]
    path = _chain(9, 100.0)  # a long acyclic path feeds the 2-cycle 7 <-> 8
    path[8, 7] = -97.0
    cases.append(path)
    cases += [_chain(n, 100.0) for n in range(1, 9)]  # acyclic: ZERO
    for _ in range(60):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cases.append(
            _block_triangular(
                rand_raw(rng, p, p, density=0.4),
                rand_raw(rng, q, q, density=0.4),
                rand_raw(rng, p, q, density=0.5, lo=20, hi=40),
            )
        )
    return cases + [w / 3.0 for w in cases]


def _exact_cycle_mean(a):
    """max_k tr(A^k) / k as a Fraction (None if acyclic); integer input only."""
    best, power = None, a
    for k in range(1, a.rows + 1):
        if k > 1:
            power = mat_mul(power, a)
        tr = trace(power)
        if not tr.is_zero:
            ratio = Fraction(int(tr.raw), k)
            best = ratio if best is None else max(best, ratio)
    return best


def test_spectral_radius_matches_cycle_enumeration(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rand_mat(rng, n, n, density=float(rng.uniform(0.2, 1.0)))
        expected = enumerate_cycle_means(a)
        got = spectral_radius(a)
        if expected == NEG_INF:
            assert got == ZERO
        else:
            assert_close(got, expected)


def test_karp_agrees_with_trace_formula(rng):
    cases = []
    for _ in range(100):
        n = int(rng.integers(1, 7))
        cases.append(rand_raw(rng, n, n, density=float(rng.uniform(0.2, 1.0))))
    for w in cases + _multi_component_cases(rng):
        a = TropMatrix(w)
        k = spectral_radius(a)
        t = spectral_radius_via_traces(a)
        assert (k.is_zero and t.is_zero) or k.isclose(t)
        if np.array_equal(w, np.round(w)):
            exact = _exact_cycle_mean(a)
            assert k.raw == (NEG_INF if exact is None else float(exact))


def _karp_loop(w):
    # Karp's D table as spectral_radius summed it: one row reduction a step.
    n = w.shape[0]
    d = np.zeros((n + 1, n))
    for k in range(1, n + 1):
        d[k] = (d[k - 1][:, None] + w).max(axis=0)
    return d


def _chain_loop(p_mat, rhs, p):
    # P^k rhs as form_families summed it: a reduction over the leading axis of P^T.
    p_t = p_mat.T.copy()
    chain = np.empty((p + 1, len(rhs)))
    chain[0] = rhs
    for k in range(1, p + 1):
        chain[k] = (p_t + chain[k - 1][:, None]).max(axis=0)
    return chain


def _completion_loop(hops, tails, p):
    # Tier 2's completion table U as form_families summed it.
    table = np.empty((p + 1,) + tails.shape)
    table[0] = tails
    for r in range(1, p + 1):
        table[r] = (table[r - 1][:, :, None] + hops).max(axis=1)
    return table


def _signed_raw(rng, shape):
    # Thirds, small integers, +-0.0 and the zero element, so that many
    # columns top out at a tie of -0.0 and 0.0, where the order of a max
    # decides the sign.
    choices = np.array([NEG_INF, -0.0, -0.0, 0.0, -1.0, 1.0, 1 / 3, -2 / 3])
    return rng.choice(choices, size=shape)


def test_walk_table_matches_the_loops_it_replaces(rng):
    # Bit for bit (compared as bytes, so -0.0 and 0.0 differ) against
    # Karp's D table, the chain P^k rhs and tier 2's completions U.
    for _ in range(150):
        b, d, steps = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(0, 7))
        mats = _signed_raw(rng, (b, d, d))
        starts = _signed_raw(rng, (b, d))
        starts[int(rng.integers(b))] = NEG_INF  # an all-zero start row
        table = walk_table(mats, starts, steps)
        assert table.shape == (steps + 1, b, d)
        assert table.tobytes() == _completion_loop(mats, starts, steps).tobytes()
        for i in range(b):
            chain = walk_table(np.ascontiguousarray(mats[i].T)[None], starts[i, None], steps)
            assert chain[:, 0].tobytes() == _chain_loop(mats[i], starts[i], steps).tobytes()
        karp = walk_table(mats, np.zeros((b, d)), d)
        for i in range(b):
            assert karp[:, i].tobytes() == _karp_loop(mats[i]).tobytes()
            assert max_cycle_mean(karp[:, i]) == spectral_radius(TropMatrix(mats[i]))


@pytest.mark.parametrize(
    "m, n, expected",
    [
        (40, 40, [(3, 40), (3, 40)]),
        (10, 100, [(1, 100), (1, 100), (2, 10), (2, 10)]),
        (100, 10, [(1, 100), (1, 100), (2, 10), (2, 10)]),
    ],
)
def test_solve_walk_table_batches(monkeypatch, m, n, expected):
    # Each stage runs its walk recursions of one order in one walk_table
    # call: Karp's and both chains at m == n, else Karp's with the chain of
    # order min(m, n), and the larger chain alone.  Both stage-two tables
    # are certified by the chain bound, so no completion table is built.
    # Records (batch, order) of every call, from whichever module makes it.
    real, calls = linalg.walk_table, []

    def counting(mats, starts, steps):
        calls.append(mats.shape[:2])
        return real(mats, starts, steps)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropsched") and getattr(module, "walk_table", None) is real:
            monkeypatch.setattr(module, "walk_table", counting)
    inst = random_scale_instance(np.random.default_rng(0), m, n)
    assert solve(inst).status == "optimal"
    assert sorted(calls) == expected


def test_package_import_loads_no_scipy():
    # The cycle mean needs numpy only; scipy would add about 0.4 s and
    # 30 MB to every process that imports the package.
    src = str(Path(tropsched.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, tropsched, tropsched.io_cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_rho_product_commutes(rng):
    for _ in range(50):
        r, c = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        a, b = rand_mat(rng, r, c), rand_mat(rng, c, r)
        x = spectral_radius(mat_mul(a, b))
        y = spectral_radius(mat_mul(b, a))
        assert (x.is_zero and y.is_zero) or x.isclose(y)


def _scaled_convergent(rng, n):
    a = rand_mat(rng, n, n)
    rho = spectral_radius_via_traces(a)
    if not rho.is_zero and rho.value > 0:
        a = scalar_mul(t_inv(rho), a)
    return a


def test_star_truncations_agree(rng):
    # Once the series converges, every truncation at n or more terms is the star.
    from tropsched.oracle import naive_star

    for _ in range(30):
        n = int(rng.integers(2, 7))
        a = _scaled_convergent(rng, n)
        star = kleene_star(a)
        assert star.allclose(naive_star(a, terms=n))
        assert star.allclose(naive_star(a, terms=n + 1))
        assert star.allclose(naive_star(a, terms=2 * n))


def test_star_fixpoint_and_dominance(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        a = _scaled_convergent(rng, n)
        star = kleene_star(a)
        fix = mat_add(TropMatrix.identity(n), mat_mul(a, star))
        assert star.allclose(fix)
        assert bool((star.raw >= TropMatrix.identity(n).raw).all())


def test_divergence_iff_positive_trace_function(rng):
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rand_mat(rng, n, n, density=float(rng.uniform(0.2, 1.0)))
        tr = trace_function(a)
        diverged = False
        try:
            kleene_star(a)
        except StarDiverges:
            diverged = True
        assert diverged == (not tr.is_zero and tr.value > 1e-9)


def test_trace_identities(rng):
    from tropsched.semiring import t_add as s_add
    from tropsched.semiring import t_mul as s_mul

    for _ in range(30):
        n = int(rng.integers(1, 6))
        a, b = rand_mat(rng, n, n), rand_mat(rng, n, n)
        assert trace(mat_add(a, b)) == s_add(trace(a), trace(b))
        x = TropValue(float(rng.integers(-3, 4)))
        assert trace(scalar_mul(x, a)) == s_mul(x, trace(a))
        c = rand_mat(rng, n, int(rng.integers(1, 6)))
        d = rand_mat(rng, c.cols, n)
        assert trace(mat_mul(c, d)) == trace(mat_mul(d, c))


# Random small matrices over dyadic payloads with zero-element holes keep
# every kernel law exact.
@st.composite
def trop_matrices(draw, rows=None, cols=None):
    r = rows or draw(st.integers(1, 4))
    c = cols or draw(st.integers(1, 4))
    entries = draw(
        st.lists(
            st.one_of(st.none(), st.integers(-40, 40).map(lambda k: k / 4.0)),
            min_size=r * c,
            max_size=r * c,
        )
    )
    return TropMatrix([entries[i * c : (i + 1) * c] for i in range(r)])


@given(trop_matrices(rows=3, cols=3), trop_matrices(rows=3, cols=3), trop_matrices(rows=3, cols=3))
def test_matrix_semiring_laws(a, b, c):
    assert mat_add(a, b) == mat_add(b, a)
    assert mat_add(mat_add(a, b), c) == mat_add(a, mat_add(b, c))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
    assert mat_mul(a, mat_add(b, c)) == mat_add(mat_mul(a, b), mat_mul(a, c))
    assert mat_add(a, a) == a


def test_trace_function_vs_spectral_radius_sign(rng):
    # Tr(A) <= unit exactly when the spectral radius is <= unit.
    for _ in range(40):
        n = int(rng.integers(1, 6))
        a = rand_mat(rng, n, n, density=float(rng.uniform(0.2, 1.0)))
        tr = trace_function(a)
        rho = spectral_radius(a)
        assert (tr.raw <= 1e-12) == (rho.raw <= 1e-12)


def _broadcast_mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """The single-block product before the (k, rows, cols) schedule.

    Its temporary followed the operands' memory order and was reduced over
    its middle axis; larger products take the kernel's blocked branch.
    """
    wa, wb = a.raw, b.raw
    if wa.shape[0] * wa.shape[1] * wb.shape[1] > linalg._MATMUL_BLOCK_LIMIT:
        return mat_mul(a, b)
    return TropMatrix._wrap((wa[:, :, None] + wb[None, :, :]).max(axis=1))


def _pipeline_outcomes(instances) -> list[str]:
    out = []
    for inst in instances:
        try:
            out.append(dumps_report(report_to_dict(solve(inst))))
        except TropicalError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _scaled(inst, factor: float, shift: float):
    # Lags and due-date bounds scaled, then shifted; release bounds scaled.
    def moved(mat):
        return TropMatrix(mat.raw * factor + shift)

    return replace(
        inst,
        **{name: moved(getattr(inst, name)) for name in ("A", "B", "C", "D", "q", "r")},
        g=TropMatrix(inst.g.raw * factor),
        h=TropMatrix(inst.h.raw * factor),
    )


def test_pipeline_bits_match_broadcast_kernel(monkeypatch):
    # Every report is byte-identical whichever schedule sums the products:
    # each module imports mat_mul by name, so each one gets the old kernel.
    rng = np.random.default_rng(16)
    base = [
        make(rng, m, n)
        for m in range(1, 7)
        for n in range(1, 7)
        for make in (random_feasible_instance, random_instance)
    ]
    base += [random_scale_instance(rng, m, n) for m, n in ((10, 30), (30, 10))]
    cases = [
        _scaled(inst, factor, shift)
        for inst in base
        for factor, shift in ((1.0, 0.0), (1 / 3, 0.0), (1 / 3, 1e9))
    ]
    current = _pipeline_outcomes(cases)
    for module in (linalg, scheduler, binomial, blockstar, inequality):
        assert module.mat_mul is mat_mul
        monkeypatch.setattr(module, "mat_mul", _broadcast_mat_mul)
    assert _pipeline_outcomes(cases) == current
    assert sum(text.startswith("{") for text in current) > len(cases) // 2
