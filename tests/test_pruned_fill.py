"""The certified and the pruned form fills against the full triangle.

``binomial.form_families`` returns the pure-P chain's families when a
certificate shows that no walk with a Q-arc can come within its rounding
band of a family's value: first a bound from the chain's largest entries,
with no product (tier 1), then one product (tier 2).  Otherwise it leaves
out of each anti-diagonal product the rows of the (k, l) triangle through
which no walk can (tier 3).  Its families must equal, bit for bit, those of
the cell-by-cell triangle (``conftest.triangle_form_terms``): on holes,
non-dyadic thirds, 1e9 shifts, zero-weight Q-cycles, and families with no
finite pure-P walk, which bound nothing, so that every row is multiplied.
With Q all zero (stage one), and on certified tables, the routine makes no
anti-diagonal product.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from conftest import rooted, triangle_form_terms
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from tropsched import binomial, scheduler
from tropsched.binomial import form_families
from tropsched.instances import random_scale_instance
from tropsched.linalg import TropMatrix
from tropsched.scheduler import eta_term_families, solve, solve_stage1
from tropsched.semiring import TropValue

NEG_INF = float("-inf")


def pure_p_values(p_mat, rhs, forms, p) -> list[TropValue]:
    """The families over pure-P walks alone: the certificate's lower bounds v."""
    zero = TropMatrix.zeros(p_mat.rows, p_mat.rows)
    return form_families(p_mat, zero, rhs, forms, p)


def full_fill(p_mat, q_mat, rhs, forms, p) -> list[float]:
    """Raw families of the cell-by-cell triangle, every walk included."""
    return [
        rooted(triangle_form_terms(lhs, p_mat, q_mat, rhs, p), o).raw
        for lhs, o in forms
    ]


def raws(values: list[TropValue]) -> list[float]:
    return [v.raw for v in values]


@contextlib.contextmanager
def counting_products():
    """(shape of a, shape of b) of every mat_mul(a, b) in ``binomial``."""
    shapes: list[tuple[tuple[int, int], tuple[int, int]]] = []
    real = binomial.mat_mul

    def counting(a, b):
        shapes.append((a.shape, b.shape))
        return real(a, b)

    with mock.patch.object(binomial, "mat_mul", counting):
        yield shapes


def fill_rows(products) -> list[int]:
    """Rows of every anti-diagonal product, the only mat_mul in ``binomial``
    against a d x 2d operand, [P; Q]^T."""
    return [a[0] for a, (k, c) in products if c == 2 * k]


@contextlib.contextmanager
def recording_tables():
    """(arguments, families) of every ``form_families`` call of the scheduler.

    The recorded arguments are (P, Q, rhs, forms, p); the chain the scheduler
    passes by keyword is passed through and not recorded.
    """
    calls = []
    real = scheduler.form_families

    def recording(*args, **kwargs):
        got = real(*args, **kwargs)
        calls.append((args, got))
        return got

    with mock.patch.object(scheduler, "form_families", recording):
        yield calls


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
# Two nodes: P only leads 0 -> 1 and Q only 1 -> 0, rhs lives at node 0.
_TWO_NODES = (
    TropMatrix([[None, None], [1, None]]),
    TropMatrix([[None, 2], [None, None]]),
    TropMatrix.column([0, None]),
)


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
@example((
    # Q-arcs weigh -5 and no shifted arc is positive: B[k] = -5 < 0 = v k.
    "tier 1: chain bound",
    TropMatrix([[0, -1], [-1, 0]]),
    TropMatrix(np.full((2, 2), -5.0)),
    TropMatrix.column([0, 0]),
    ((TropMatrix([[0, 0]]), 0),),
    3,
))
@example((
    # B charges every arc after the first Q-arc max Q = 2, but P and Q
    # alternate here and P-arcs weigh 1 - 5.5 shifted: only the product's
    # completions see that no walk with a Q-arc reaches v = 5.5.
    "tier 2: one product",
    *_TWO_NODES,
    ((TropMatrix([[None, 10]]), 1),),
    4,
))
@example((
    # The Q-arc 0 -> 1 weighs -10, but three P-loops of 5 at node 1 after it
    # lift the family from 0 to 5 / 3: B must count the arcs after the Q-arc.
    "tier 3: pruned fill",
    TropMatrix([[0, None], [None, 5]]),
    TropMatrix([[None, None], [-10, None]]),
    TropMatrix.column([0, None]),
    ((TropMatrix([[0, 0]]), 0),),
    4,
))
@example((
    # The Q-arc 0 -> 1 weighs -1 and the end at node 1 weighs 2: B must
    # count the end.
    "tier 3: pruned fill",
    TropMatrix([[0, None], [None, None]]),
    TropMatrix([[None, None], [-1, None]]),
    TropMatrix.column([0, None]),
    ((TropMatrix([[0, 2]]), 0),),
    2,
))
@example((
    # Every walk to node 0's lhs needs a Q-arc: the pure-P family is zero.
    "tier 3: no bound",
    *_TWO_NODES,
    ((TropMatrix([[0, None]]), 0),),
    4,
))
def test_pruned_families_match_full_fill(case):
    # The tier that made the families, read off the products it asked for:
    # none for the chain bound, the certificate's (p, d) x (d, d) product,
    # then one product against [P; Q]^T per anti-diagonal.  An example
    # labelled with a tier must take it.
    label, p_mat, q_mat, rhs, forms, p = case
    d = p_mat.rows
    lows = pure_p_values(p_mat, rhs, forms, p)
    event(label)
    with counting_products() as products:
        got = form_families(p_mat, q_mat, rhs, forms, p)
    assert raws(got) == full_fill(p_mat, q_mat, rhs, forms, p)
    certificate = ((p, d), (d, d))
    if q_mat.is_zero_matrix():
        tier = "Q all zero"
        assert products == []
    elif any(v.is_zero for v in lows):
        tier = "tier 3: no bound"
        assert products == [((s, d), (d, 2 * d)) for s in range(1, p + 1)]
    elif not products:
        tier = "tier 1: chain bound"
    elif products == [certificate]:
        tier = "tier 2: one product"
    else:
        tier = "tier 3: pruned fill"
        rows = fill_rows(products)
        assert products[0] == certificate and len(products) == len(rows) + 1
        assert len(rows) == p and sum(rows) <= p * (p + 1) // 2
    if tier in ("tier 1: chain bound", "tier 2: one product"):
        assert got == lows
    event(tier)
    if label.startswith("tier"):
        assert tier == label


@pytest.mark.parametrize("q_entry", [None, -5.0, 1.0])
def test_negative_zero_in_p_and_rhs(q_entry):
    # The chain reduces over the leading axis of P^T, the triangle over the
    # rows of P.  With -0.0 in P a zero sum may take either sign, so values
    # are compared, on Q all zero, a tier-1 table and a filled one.
    p_mat = TropMatrix([[-0.0, -1.0, -0.0], [-0.0, -0.0, -2.0], [-3.0, -0.0, -0.0]])
    if q_entry is None:
        q_mat = TropMatrix.zeros(3, 3)
    else:
        q_mat = TropMatrix(np.full((3, 3), q_entry))
    rhs = TropMatrix.column([-0.0, 0.0, -0.0])
    forms = ((TropMatrix([[0.0, -0.0, -1.0]]), 0), (TropMatrix([[-0.0, -0.0, -0.0]]), 1))
    with counting_products() as products:
        got = form_families(p_mat, q_mat, rhs, forms, 4)
    assert raws(got) == full_fill(p_mat, q_mat, rhs, forms, 4)
    assert (products == []) == (q_entry != 1.0)


def test_family_without_pure_p_walk_stops_pruning():
    # Node 0 holds rhs and the first family's lhs; P only leads 0 -> 1 and Q
    # only 1 -> 0, so every walk of that family needs a Q-arc: its value is
    # 3 while its pure-P value is the zero element.  The second family's
    # pure-P walk (P once, then lhs at node 1) gives it the bound 11 / 2,
    # which no walk with a Q-arc meets: alone, it is certified.
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
            with counting_products() as products:
                got = form_families(p_mat, q_mat, rhs, forms, p)
            assert raws(got) == full_fill(p_mat, q_mat, rhs, forms, p)
            if first in forms:  # no bound: every row is multiplied
                assert fill_rows(products) == list(range(1, p + 1))
            else:  # certified by the product, not by the chain bound
                assert products == [((p, 2), (2, 2))]
        assert got == [TropValue(5.5), TropValue(3.0)]


@pytest.mark.parametrize("m, n", [(40, 40), (60, 60), (10, 100), (100, 10)])
def test_certified_tables_fill_no_anti_diagonal(m, n):
    # On random_scale_instance no walk with a Q-arc comes near a family, so
    # both stage-two tables return the pure-P chain's families, certified
    # by the chain bound: no product at all, not even the certificate's.
    inst = random_scale_instance(np.random.default_rng(0), m, n)
    report = solve(inst)
    assert report.status == "optimal"
    with counting_products() as products, recording_tables() as calls:
        terms = eta_term_families(report.stage2.derived, inst)
    assert terms == report.stage2_terms
    assert products == [] and len(calls) == 2
    for (p_mat, q_mat, rhs, forms, p), got in calls:
        assert p == min(m, n) and not q_mat.is_zero_matrix()
        assert raws(got) == full_fill(p_mat, q_mat, rhs, forms, p)


def test_q_arc_walk_refuses_certificate():
    # One heavy Q-arc, 1 -> 0, lifts a walk through it strictly above every
    # pure-P walk: the certificate refuses, and the pruned fill multiplies
    # fewer rows than the whole triangle.
    rng = np.random.default_rng(0)
    d, p = 6, 8
    p_raw = rng.integers(-6, 1, (d, d)).astype(float)
    q_raw = rng.integers(-9, -2, (d, d)).astype(float)
    q_raw[0, 1] = 6.0
    p_mat, q_mat = TropMatrix(p_raw), TropMatrix(q_raw)
    rhs = TropMatrix(rng.integers(-3, 4, (d, 1)).astype(float))
    forms = ((TropMatrix(rng.integers(-3, 4, (1, d)).astype(float)), 0),)
    (low,) = pure_p_values(p_mat, rhs, forms, p)
    with counting_products() as products:
        (got,) = form_families(p_mat, q_mat, rhs, forms, p)
    assert got.value > low.value
    assert [got.raw] == full_fill(p_mat, q_mat, rhs, forms, p)
    rows = fill_rows(products)
    assert len(rows) == p and sum(rows) < p * (p + 1) // 2


def test_zero_bound_family_multiplies_every_row():
    # Node 0 has no P-arc in and holds neither rhs nor a pure-P walk, so a
    # family whose lhs lives there only has walks ending in a Q-arc: the
    # zero bound certifies nothing and prunes nothing.
    rng = np.random.default_rng(1)
    d, p = 5, 7
    p_raw = rng.integers(-4, 3, (d, d)).astype(float)
    p_raw[0] = NEG_INF
    p_mat = TropMatrix(p_raw)
    q_mat = TropMatrix(rng.integers(-4, 3, (d, d)).astype(float))
    rhs = TropMatrix.column([None, 0, 1, -1, 2])
    forms = ((TropMatrix([[0, None, None, None, None]]), 0),)
    assert pure_p_values(p_mat, rhs, forms, p) == [TropValue.zero()]
    with counting_products() as products:
        got = form_families(p_mat, q_mat, rhs, forms, p)
    assert not got[0].is_zero
    assert raws(got) == full_fill(p_mat, q_mat, rhs, forms, p)
    assert fill_rows(products) == list(range(1, p + 1))


def test_stage_one_fills_no_anti_diagonal():
    # Stage one's coupling blocks Q and S are all zero, so both its tables
    # are plain chains of powers, at any order: no product at all.
    inst = random_scale_instance(np.random.default_rng(0), 31, 30)
    with counting_products() as products:
        report = solve_stage1(inst)
    assert report.stage1.feasible and not report.stage1.mu.is_zero
    assert products == []
