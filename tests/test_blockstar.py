import numpy as np
import pytest
from conftest import NEG_INF, assert_close, rand_mat, zero_cycle_skew

from tropsched import blockstar
from tropsched.blockstar import SkewBlock, assemble, skew_star, skew_trace
from tropsched.errors import DimensionMismatch, StarDiverges
from tropsched.linalg import (
    TropMatrix,
    kleene_star,
    mat_mul,
    mat_pow,
    scalar_mul,
    spectral_radius_via_traces,
    trace_function,
)
from tropsched.semiring import ZERO, t_inv


def test_assemble_examples():
    sb = SkewBlock(TropMatrix([[-2]]), TropMatrix([[1]]))
    assert assemble(sb) == TropMatrix([[None, -2], [1, None]])
    sb = SkewBlock(TropMatrix.zeros(1, 1), TropMatrix.zeros(1, 1))
    assert assemble(sb) == TropMatrix.zeros(2, 2)
    sb = SkewBlock(TropMatrix([[5], [6]]), TropMatrix([[7, 8]]))
    assert assemble(sb) == TropMatrix(
        [[None, None, 5], [None, None, 6], [7, 8, None]]
    )


def test_block_shape_validation():
    with pytest.raises(DimensionMismatch):
        SkewBlock(TropMatrix([[1, 2]]), TropMatrix([[3, 4]]))


def test_skew_trace_examples():
    assert_close(skew_trace(SkewBlock(TropMatrix([[-2]]), TropMatrix([[1]]))), -1)
    assert skew_trace(SkewBlock(TropMatrix([[5]]), TropMatrix.zeros(1, 1))) == ZERO
    sb = SkewBlock(TropMatrix([[2], [3]]), TropMatrix([[1, -1]]))
    # min block order 1: single term tr(CB) = max(1+2, -1+3) = 3
    assert_close(skew_trace(sb), 3)


def test_skew_star_examples():
    assert skew_star(SkewBlock(TropMatrix([[-2]]), TropMatrix([[1]]))) == TropMatrix(
        [[0, -2], [1, 0]]
    )
    sb = SkewBlock(TropMatrix.zeros(2, 1), TropMatrix.zeros(1, 2))
    assert skew_star(sb) == TropMatrix.identity(3)
    with pytest.raises(StarDiverges) as exc_info:
        skew_star(SkewBlock(TropMatrix([[-2]]), TropMatrix([[3]])))
    assert_close(exc_info.value.trace_value, 1)


def test_boundary_convergence():
    # tr(CB) = 0 sits exactly on the unit: the star still converges.
    star = skew_star(SkewBlock(TropMatrix([[-2]]), TropMatrix([[2]])))
    assert star == TropMatrix([[0, -2], [2, 0]])


def _scaled_skew(rng, p, q):
    b = rand_mat(rng, p, q)
    c = rand_mat(rng, q, p)
    full = assemble(SkewBlock(b, c))
    rho = spectral_radius_via_traces(full)
    if not rho.is_zero and rho.value > 0:
        shift = t_inv(rho)
        b, c = scalar_mul(shift, b), scalar_mul(shift, c)
    return SkewBlock(b, c)


def test_identities_against_full_matrix(rng):
    for p in range(1, 5):
        for q in range(1, 5):
            for _ in range(8):
                sb = _scaled_skew(rng, p, q)
                full = assemble(sb)
                tr_full = trace_function(full)
                tr_skew = skew_trace(sb)
                assert (tr_full.is_zero and tr_skew.is_zero) or tr_full.isclose(tr_skew)
                assert skew_star(sb).allclose(kleene_star(full))


def test_even_odd_power_structure(rng):
    for _ in range(10):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sb = SkewBlock(rand_mat(rng, p, q), rand_mat(rng, q, p))
        full = assemble(sb)
        for k in (2, 4):
            w = mat_pow(full, k).raw
            assert (w[:p, p:] == NEG_INF).all() and (w[p:, :p] == NEG_INF).all()
        for k in (1, 3):
            w = mat_pow(full, k).raw
            assert (w[:p, :p] == NEG_INF).all() and (w[p:, p:] == NEG_INF).all()


def test_star_from_one_closure_on_zero_weight_cycles(rng):
    # Integer data: the blockwise star and the full closure agree exactly.
    for p in range(1, 6):
        for q in range(1, 6):
            for density in (0.3, 0.8, 1.0):
                sb = zero_cycle_skew(rng, p, q, density=density)
                assert skew_star(sb) == kleene_star(assemble(sb))


def test_star_off_diagonal_blocks_extend_the_diagonal_blocks(rng):
    # With K and L the star's upper-left and lower-right blocks, its upper
    # right block is K B = B L and its lower left C K = L C.  On integer
    # data every sum is exact, so both orientations (p <= q closes BC, p > q
    # closes CB) give all four products to the bit, zero blocks included.
    for p in range(1, 6):
        for q in range(1, 6):
            cases = [zero_cycle_skew(rng, p, q, density=d) for d in (0.3, 0.8, 1.0)]
            b, c = rand_mat(rng, p, q), rand_mat(rng, q, p)
            cases += [
                SkewBlock(TropMatrix.zeros(p, q), c),
                SkewBlock(b, TropMatrix.zeros(q, p)),
                SkewBlock(TropMatrix.zeros(p, q), TropMatrix.zeros(q, p)),
            ]
            for sb in cases:
                star = skew_star(sb).raw
                ul, lr = TropMatrix(star[:p, :p]), TropMatrix(star[p:, p:])
                ur, ll = star[:p, p:].tobytes(), star[p:, :p].tobytes()
                assert mat_mul(ul, sb.B).raw.tobytes() == ur
                assert mat_mul(sb.B, lr).raw.tobytes() == ur
                assert mat_mul(sb.C, ul).raw.tobytes() == ll
                assert mat_mul(lr, sb.C).raw.tobytes() == ll


def _signed_thirds_skew(rng, p, q, density):
    # zero_cycle_skew's blocks in thirds, with half of the zero entries -0.0.
    def thirds(block):
        raw = block.raw / 3
        raw[(raw == 0.0) & (rng.random(raw.shape) < 0.5)] = -0.0
        return TropMatrix(raw)

    sb = zero_cycle_skew(rng, p, q, density=density)
    return thirds(sb.B), thirds(sb.C)


def test_skew_star_orientations_agree_to_the_bit(rng):
    # At p != q the two orientations close the same product B C: (B, C)
    # closes its BC and (C, B) its CB.  So the star of one is the other's
    # with the two index sets swapped, to the sign of every zero.
    negative_zeros = 0
    for p in range(1, 6):
        for q in range(1, 6):
            if p == q:
                continue
            for density in (0.3, 0.8, 1.0):
                b, c = _signed_thirds_skew(rng, p, q, density)
                negative_zeros += int(np.signbit(b.raw).sum() - (b.raw < 0).sum())
                star = skew_star(SkewBlock(b, c)).raw
                swap = np.r_[q : p + q, 0:q]
                mirrored = skew_star(SkewBlock(c, b)).raw[np.ix_(swap, swap)]
                assert (star.view(np.int64) == mirrored.view(np.int64)).all()
    assert negative_zeros > 0


def test_zero_block_star_needs_no_closure(rng, monkeypatch):
    # With B or C all zero no path has two arcs: the star is [[I, B], [C, I]].
    cases = []
    for p in range(1, 5):
        for q in range(1, 5):
            b, c = rand_mat(rng, p, q), rand_mat(rng, q, p)
            cases += [SkewBlock(TropMatrix.zeros(p, q), c), SkewBlock(b, TropMatrix.zeros(q, p))]
    expected = [kleene_star(assemble(sb)) for sb in cases]

    def no_closure(a):
        raise AssertionError("closure computed for a zero block")

    monkeypatch.setattr(blockstar, "kleene_star", no_closure)
    for sb, star in zip(cases, expected):
        assert skew_star(sb) == star


def test_divergence_reports_skew_trace(rng):
    raised = 0
    for _ in range(60):
        p, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sb = SkewBlock(rand_mat(rng, p, q), rand_mat(rng, q, p))
        tr = skew_trace(sb)
        if tr.raw <= 1e-9:
            continue
        raised += 1
        with pytest.raises(StarDiverges) as exc_info:
            skew_star(sb)
        assert exc_info.value.trace_value == tr
    assert raised >= 20
