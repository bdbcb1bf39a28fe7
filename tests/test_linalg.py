import os
import subprocess
import sys
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
)
from hypothesis import given
from hypothesis import strategies as st

import tropsched
from tropsched import linalg
from tropsched.errors import (
    DimensionMismatch,
    NotAVector,
    NotSquare,
    StarDiverges,
    ZeroMatrix,
)
from tropsched.linalg import (
    TropMatrix,
    conjugate,
    is_column_regular,
    is_regular,
    kleene_star,
    mat_add,
    mat_mul,
    mat_pow,
    scalar_mul,
    spectral_radius,
    spectral_radius_via_traces,
    trace,
    trace_function,
)
from tropsched.semiring import ZERO, TropValue, t_inv

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
