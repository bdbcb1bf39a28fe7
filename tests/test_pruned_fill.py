"""The bound-pruned form fill against the full one.

From its cutoff order on, ``binomial.form_families`` leaves out of each
anti-diagonal product the rows of the (k, l) triangle through which no walk
can come within its rounding band of a family's value.  Its families must
equal, bit for bit, those of the full fill, the same routine with the
cutoff moved above p: on holes, non-dyadic thirds, 1e9 shifts, zero-weight
Q-cycles, and families with no finite pure-P walk, which bound nothing.
With Q all zero (stage one) the routine makes no anti-diagonal product.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from tropsched import binomial
from tropsched.binomial import form_families
from tropsched.instances import random_scale_instance
from tropsched.linalg import TropMatrix
from tropsched.scheduler import eta_term_families, solve, solve_stage1
from tropsched.semiring import TropValue

NEG_INF = float("-inf")


def pure_p_values(p_mat, rhs, forms, p) -> list[TropValue]:
    """The families over pure-P walks alone: the pruning's lower bounds v."""
    zero = TropMatrix.zeros(p_mat.rows, p_mat.rows)
    return form_families(p_mat, zero, rhs, forms, p)


def fill(p_mat, q_mat, rhs, forms, p, pruned: bool) -> list[TropValue]:
    """``form_families`` pruned from p = 1 on, or not pruned at all."""
    cutoff = 1 if pruned else p + 1
    with mock.patch.object(binomial, "_PRUNED_FILL_FROM", cutoff):
        return form_families(p_mat, q_mat, rhs, forms, p)


@contextlib.contextmanager
def counting_fill_rows():
    """Rows of every anti-diagonal product, the mat_mul of d-column rows
    against the d x 2d operand [P; Q]^T.  The closing lhs . columns product
    has that shape only when p + 1 == 2d."""
    rows: list[int] = []
    real = binomial.mat_mul

    def counting(a, b):
        if a.cols == b.rows and b.cols == 2 * b.rows:
            rows.append(a.rows)
        return real(a, b)

    with mock.patch.object(binomial, "mat_mul", counting):
        yield rows


@st.composite
def form_cases(draw):
    """(label, P, Q, rhs, forms, p) with one to three families on one table."""
    d = draw(st.integers(1, 5))
    p = draw(st.integers(1, 7))
    holes = draw(st.booleans())

    def mat(rows, cols, lo, hi):
        size = rows * cols
        arr = np.array(
            draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), float
        ).reshape(rows, cols)
        if holes:
            mask = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            arr[np.array(mask).reshape(rows, cols)] = NEG_INF
        return arr

    p_raw, q_raw, rhs = mat(d, d, -6, 6), mat(d, d, -6, 6), mat(d, 1, -3, 3)
    zero_cycles = draw(st.booleans())
    if zero_cycles:
        # No positive Q-arc and a zero self-loop at every node: every row
        # can idle on a Q-cycle of weight zero.
        q_raw = -np.abs(q_raw)
        np.fill_diagonal(q_raw, 0.0)
    count = draw(st.integers(1, 3))
    lhs = [mat(1, d, -3, 3) for _ in range(count)]
    offsets = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    thirds = draw(st.booleans())
    if thirds:
        p_raw, q_raw, rhs, lhs = p_raw / 3, q_raw / 3, rhs / 3, [x / 3 for x in lhs]
    shift = draw(st.sampled_from(["", "ends", "ends+P"]))
    if shift:
        # Sums of 1e9 size: stage two's rhs and lhs carry shifted lags and
        # bounds while its P and Q take differences of them.  With P shifted
        # too, the family itself is near 1e9.
        rhs = rhs + 1e9
        lhs = [x - 1e9 for x in lhs]
    if shift == "ends+P":
        p_raw = p_raw + 1e9
    forms = tuple((TropMatrix(x), o) for x, o in zip(lhs, offsets))
    label = f"thirds={thirds} shift={shift or 'none'} zero Q-cycles={zero_cycles}"
    return label, TropMatrix(p_raw), TropMatrix(q_raw), TropMatrix(rhs), forms, p


# Bands of 1e-9 max(1, |v|) and of eps M drop the winning walk on these.
_THIRD_BELOW = -1000000000.3333334  # -1e9 - 1/3, rounded


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(form_cases())
@example((
    "1e-9 band",
    TropMatrix([[0.0]]),
    TropMatrix([[0.0]]),
    TropMatrix([[1e9]]),
    ((TropMatrix([[_THIRD_BELOW]]), 0),),
    2,
))
@example((
    "eps M band",
    TropMatrix([[0.0, 0.0, 0.0], [0.0, 1 / 3, 0.0], [0.0, 0.0, 0.0]]),
    TropMatrix(np.zeros((3, 3))),
    TropMatrix.column([1e9, 1e9, 1e9]),
    ((TropMatrix([[None, _THIRD_BELOW, None]]), 0),),
    3,
))
def test_pruned_families_match_full_fill(case):
    label, p_mat, q_mat, rhs, forms, p = case
    lows = pure_p_values(p_mat, rhs, forms, p)
    event(label)
    with counting_fill_rows() as rows:
        got = fill(p_mat, q_mat, rhs, forms, p, pruned=True)
    assert got == fill(p_mat, q_mat, rhs, forms, p, pruned=False)
    if any(v.is_zero for v in lows):
        event("a family bounds nothing")
    elif sum(rows) < p * (p + 1) // 2:
        event("rows dropped")


def test_family_without_pure_p_walk_stops_pruning():
    # Node 0 holds rhs and the first family's lhs; P only leads 0 -> 1 and Q
    # only 1 -> 0, so every walk of that family needs a Q-arc: its value is
    # 3 while its pure-P value is the zero element.  The second family's
    # pure-P walk (P once, then lhs at node 1) gives it the bound 11 / 2,
    # which the first family's winning walk, ending at node 0, cannot meet.
    p_mat = TropMatrix([[None, None], [1, None]])
    q_mat = TropMatrix([[None, 2], [None, None]])
    rhs = TropMatrix.column([0, None])
    first = (TropMatrix([[0, None]]), 0)
    second = (TropMatrix([[None, 10]]), 1)
    for p in (4, 6, 8):
        assert pure_p_values(p_mat, rhs, (first, second), p) == [
            TropValue.zero(),
            TropValue(5.5),
        ]
        for forms in ((first,), (second,), (first, second), (second, first)):
            with counting_fill_rows() as rows:
                got = fill(p_mat, q_mat, rhs, forms, p, pruned=True)
            assert got == fill(p_mat, q_mat, rhs, forms, p, pruned=False)
            if first in forms:  # no bound: every row is multiplied
                assert sum(rows) == p * (p + 1) // 2
            else:
                assert sum(rows) < p * (p + 1) // 2
        assert got == [TropValue(5.5), TropValue(3.0)]


def test_pruned_fill_multiplies_few_rows(monkeypatch):
    # random_scale_instance keeps about one row per anti-diagonal here.
    p = 60
    inst = random_scale_instance(np.random.default_rng(0), p, p)
    dm = solve(inst).stage2.derived
    with counting_fill_rows() as rows:
        pruned = eta_term_families(dm, inst)
    kept = sum(rows)
    monkeypatch.setattr(binomial, "_PRUNED_FILL_FROM", p + 1)
    with counting_fill_rows() as rows:
        full = eta_term_families(dm, inst)
    triangle = p * (p + 1) // 2
    assert sum(rows) == 2 * triangle  # the full fill multiplies every row
    assert 0 < kept < 0.1 * 2 * triangle
    assert pruned == full


@pytest.mark.parametrize("step", [-1, 0])
def test_pruned_fill_from_the_cutoff(monkeypatch, step):
    # Below the cutoff both stage-two tables multiply every row of every
    # anti-diagonal; from it on, fewer, with the same families.
    p = binomial._PRUNED_FILL_FROM + step
    inst = random_scale_instance(np.random.default_rng(p), p + 3, p)
    report = solve(inst)
    assert report.status == "optimal"
    with counting_fill_rows() as rows:
        terms = eta_term_families(report.stage2.derived, inst)
    assert terms == report.stage2_terms
    if step < 0:
        assert rows == 2 * list(range(1, p + 1))
    else:
        assert len(rows) == 2 * p
        assert sum(rows) < p * (p + 1)
    monkeypatch.setattr(binomial, "_PRUNED_FILL_FROM", p + 1)
    assert eta_term_families(report.stage2.derived, inst) == terms


def test_stage_one_fills_no_anti_diagonal():
    # Stage one's coupling blocks Q and S are all zero, so both its tables
    # are plain chains of powers, at any order: no anti-diagonal product.
    inst = random_scale_instance(np.random.default_rng(0), 31, 30)
    with counting_fill_rows() as rows:
        report = solve_stage1(inst)
    assert report.stage1.feasible and not report.stage1.mu.is_zero
    assert rows == []
