"""The stage-two term families against the binomial table route.

``eta_term_families`` takes the cycle family as the maximum cycle mean of
Q* P and the three form families from vector tables.  The reference here
rebuilds all four from per-degree terms as the closed form did before: the
cycle family as the join of the k-th roots of tr T[k, p-k]
(``weighted_trace_terms``), each form family as the join of rooted
per-degree forms read off the cell-by-cell vector triangle
(``conftest.triangle_form_columns``).

Agreement required:

- form families: bit for bit on every input, and within 1e-9 of the
  forms read off the matrix table's cells, lhs . T[k, p-k] . rhs;
- cycle family on an integer-valued pair (P, Q), or (R, S) when m > n: the
  table's traces are then exact integers, and the cycle mean must equal
  the correctly rounded largest ratio tr T[k, p-k] / k.  The table route
  itself rounds tr * (1/k) and can sit one ulp off that value;
- cycle family elsewhere (non-dyadic data, large shifts): within 1e-9.

Both stages' cycle family must also equal, bit for bit, the direct route
with its own closure: the maximum cycle mean of kleene_star(S) R when
m >= n, else of kleene_star(Q) P.  The solver reads that closure off the
stage condition's star instead of computing it again.

The stage-one families come from the same routine with a zero coupling
block.  Their reference is the left-to-right chain the solver used before:
row forms lhs (D~ C)^k and lhs (C D~)^k carried through the chain and read
off against g or q.  The two routes add the same weights in a different
order, so they must agree bit for bit on integer-valued data and within
1e-9 times the largest finite entry elsewhere.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from conftest import rooted, triangle_form_terms
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from tropsched.binomial import build_table, weighted_trace_terms
from tropsched.errors import InvalidInstance, StarDiverges
from tropsched.instances import random_instance, random_scale_instance, worked_example
from tropsched.linalg import (
    TropMatrix,
    conjugate,
    kleene_star,
    mat_add,
    mat_mul,
    spectral_radius,
)
from tropsched.scheduler import (
    ProblemInstance,
    check_stage1_feasibility,
    check_stage2_feasibility,
    compute_mu,
    derive_matrices,
    eta_term_families,
    mu_term_families,
)
from tropsched.semiring import TropValue

NEG_INF = float("-inf")
FORM_FAMILIES = ("worker_release", "task_deadline", "lateness_chain")


def cell_form_terms(lhs, p_mat, q_mat, rhs, p) -> dict[int, TropValue]:
    """Per-degree forms from the matrix table's cells instead of vectors."""
    table = build_table(p_mat, q_mat, p)
    return {
        k: mat_mul(mat_mul(lhs, table.cell(k, p - k)), rhs).entry(0, 0)
        for k in range(p + 1)
    }


def table_route(dm, inst, form_terms=triangle_form_terms) -> dict[str, TropValue]:
    """The four families from the per-degree binomial table terms."""
    k_max = min(inst.m, inst.n)
    hc, rc = conjugate(inst.h), conjugate(inst.r)
    pair = (dm.P, dm.Q) if inst.m <= inst.n else (dm.R, dm.S)
    lhs_g = mat_add(mat_mul(rc, dm.C1), hc)
    lhs_q = mat_add(mat_mul(hc, dm.D1conj), rc)
    lhs_a = mat_mul(rc, inst.A)
    return {
        "cycle_traces": rooted(weighted_trace_terms(*pair, k_max), 0),
        "worker_release": rooted(
            form_terms(lhs_g, dm.R, dm.S, inst.g, k_max), 0
        ),
        "task_deadline": rooted(
            form_terms(lhs_q, dm.P, dm.Q, inst.q, k_max), 0
        ),
        "lateness_chain": rooted(
            form_terms(lhs_a, dm.R, dm.S, inst.g, k_max), 1
        ),
    }


def direct_cycle(inst, p_mat, q_mat, r_mat, s_mat) -> TropValue:
    """The cycle family with its own closure: S* R when m >= n, else Q* P."""
    if inst.m >= inst.n:
        return spectral_radius(mat_mul(kleene_star(s_mat), r_mat))
    return spectral_radius(mat_mul(kleene_star(q_mat), p_mat))


def _stage_one_dconj(inst: ProblemInstance) -> TropMatrix:
    return TropMatrix.zeros(inst.n, inst.m) if inst.D.is_zero_matrix() else conjugate(inst.D)


def chain_mu_families(inst: ProblemInstance) -> dict[str, TropValue]:
    """The four stage-one families by the left-to-right chain."""
    m, n, c = inst.m, inst.n, inst.C
    hc, rc = conjugate(inst.h), conjugate(inst.r)
    dconj = _stage_one_dconj(inst)
    k_max = min(m, n)

    def chain(lhs, first, second, rhs):
        # One {k: lhs_i (first second)^k rhs} dict per row i of lhs, k = 0..k_max.
        rows = [lhs.raw]
        for _ in range(k_max):
            lhs = mat_mul(mat_mul(lhs, first), second)
            rows.append(lhs.raw)
        forms = mat_mul(TropMatrix(np.vstack(rows)), rhs).raw
        return [dict(enumerate(map(TropValue.from_raw, row.tolist())))
                for row in forms.reshape(k_max + 1, lhs.rows).T]

    core = mat_mul(c, dconj) if m <= n else mat_mul(dconj, c)
    g_lhs = TropMatrix(np.vstack((hc.raw, mat_mul(rc, c).raw)))
    release, finish = chain(g_lhs, dconj, c, inst.g)
    (deadline,) = chain(mat_add(mat_mul(hc, dconj), rc), c, dconj, inst.q)
    return {
        "cycle_mean": spectral_radius(core),
        "release_chain": rooted(release, 0),
        "deadline_chain": rooted(deadline, 0),
        "finish_chain": rooted(finish, 1),
    }


def assert_mu_matches_chain(inst: ProblemInstance) -> None:
    got, ref = mu_term_families(inst), chain_mu_families(inst)
    assert got.keys() == ref.keys()
    m, n, c, dconj = inst.m, inst.n, inst.C, _stage_one_dconj(inst)
    zero_q, zero_s = TropMatrix.zeros(m, m), TropMatrix.zeros(n, n)
    direct = direct_cycle(inst, mat_mul(c, dconj), zero_q, mat_mul(dconj, c), zero_s)
    assert got["cycle_mean"] == direct
    fields = [getattr(inst, name) for name in "ABCDghqr"]
    if _integer_valued(*fields):
        assert got == ref
        return
    largest = max(np.abs(f.raw[np.isfinite(f.raw)]).max(initial=0.0) for f in fields)
    for name in got:
        assert got[name].isclose(ref[name], 1e-9 * max(1.0, largest)), name


def _integer_valued(*mats: TropMatrix) -> bool:
    for mat in mats:
        finite = mat.raw[np.isfinite(mat.raw)]
        if not np.array_equal(finite, np.round(finite)):
            return False
    return True


def _stage2_ready(inst: ProblemInstance):
    """Derived matrices when both stage conditions pass, else None."""
    if not check_stage1_feasibility(inst)[0]:
        return None
    try:
        mu = compute_mu(inst)
    except InvalidInstance:
        return None  # degenerate stage-one objective
    dm = derive_matrices(inst, mu)
    if not check_stage2_feasibility(dm, inst)[0]:
        return None
    return dm


def assert_routes_agree(inst: ProblemInstance, dm) -> None:
    got = eta_term_families(dm, inst)
    ref = table_route(dm, inst)
    cells = table_route(dm, inst, form_terms=cell_form_terms)
    for name in FORM_FAMILIES:
        assert got[name] == ref[name], name
        assert got[name].isclose(cells[name], 1e-9), name
    cycle = got["cycle_traces"]
    assert cycle == direct_cycle(inst, dm.P, dm.Q, dm.R, dm.S)
    pair = (dm.P, dm.Q) if inst.m <= inst.n else (dm.R, dm.S)
    if _integer_valued(*pair):
        traces = weighted_trace_terms(*pair, min(inst.m, inst.n))
        ratios = [Fraction(t.value) / k for k, t in traces.items() if not t.is_zero]
        expected = TropValue(float(max(ratios))) if ratios else TropValue.zero()
        assert cycle == expected
        assert cycle.isclose(ref["cycle_traces"], 1e-9)
    else:
        assert cycle.isclose(ref["cycle_traces"], 1e-9)


# -- data transforms ------------------------------------------------------------


def _map_fields(inst: ProblemInstance, names: str, fn) -> ProblemInstance:
    return dataclasses.replace(
        inst, **{name: TropMatrix(fn(getattr(inst, name).raw)) for name in names}
    )


def thirds(inst: ProblemInstance) -> ProblemInstance:
    """Every lag and bound divided by three: non-dyadic data throughout."""
    return _map_fields(inst, "ABCDghqr", lambda raw: raw / 3.0)


def shifted(inst: ProblemInstance, by: float = 1e9) -> ProblemInstance:
    """Every lag and every task due-date bound moved by ``by``."""
    return _map_fields(inst, "ABCDqr", lambda raw: raw + by)


def with_nulls(inst: ProblemInstance, **holes) -> ProblemInstance:
    """Blank rows or columns of B and D, e.g. ``B_rows=[0]``, ``D_cols=[1]``."""
    raw = {"B": inst.B.raw.copy(), "D": inst.D.raw.copy()}
    for key, index in holes.items():
        name, axis = key.split("_")
        if axis == "rows":
            raw[name][index, :] = NEG_INF
        else:
            raw[name][:, index] = NEG_INF
    return dataclasses.replace(
        inst, B=TropMatrix(raw["B"]), D=TropMatrix(raw["D"])
    )


def _scale(m: int, n: int, seed: int = 0) -> ProblemInstance:
    return random_scale_instance(np.random.default_rng(seed), m, n)


# -- seeded cases -----------------------------------------------------------------

SEEDED = {
    "worked_1x1": worked_example(),
    "scale_1x1": _scale(1, 1),
    "scale_1x12": _scale(1, 12),
    "scale_12x1": _scale(12, 1),
    "scale_1x60": _scale(1, 60),
    "scale_60x1": _scale(60, 1),
    "scale_8x8": _scale(8, 8),
    "scale_6x10": _scale(6, 10),
    "scale_10x6": _scale(10, 6),
    "scale_12x18": _scale(12, 18, seed=3),
    "scale_18x12": _scale(18, 12, seed=3),
    "null_task_rows": with_nulls(_scale(6, 7), B_rows=[0, 3], D_rows=[0, 3]),
    "null_worker_cols": with_nulls(_scale(7, 6), B_cols=[1], D_cols=[1, 4]),
    "null_d_only": with_nulls(_scale(5, 4, seed=1), D_rows=[1], D_cols=[0]),
    "thirds_6x6": thirds(_scale(6, 6, seed=1)),
    "thirds_7x4": thirds(_scale(7, 4, seed=2)),
    "thirds_nulls": thirds(with_nulls(_scale(5, 6, seed=1), B_cols=[2], D_rows=[1])),
    "shift_6x6": shifted(_scale(6, 6, seed=1)),
    "shift_thirds_5x7": shifted(thirds(_scale(5, 7, seed=4))),
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_instances(name):
    inst = SEEDED[name]
    assert_mu_matches_chain(inst)
    dm = _stage2_ready(inst)
    assert dm is not None, "seeded case must pass both stage conditions"
    assert_routes_agree(inst, dm)


@pytest.mark.parametrize("m,n,seed", [(5, 5, 0), (4, 6, 1), (6, 4, 2), (1, 5, 3)])
def test_marginal_zero_weight_cycle(m, n, seed):
    # Without second-project due-date lags, Q is the first project's cycle
    # matrix scaled by mu; when mu is that matrix's cycle mean, Q has a
    # cycle of weight exactly zero and the stage-two condition is marginal.
    inst = dataclasses.replace(_scale(m, n, seed), B=TropMatrix.zeros(m, n))
    dm = _stage2_ready(inst)
    assert dm is not None
    assert spectral_radius(dm.Q).raw == 0.0
    assert check_stage2_feasibility(dm, inst)[1].raw == 0.0
    assert_routes_agree(inst, dm)
    assert_routes_agree(thirds(inst), _stage2_ready(thirds(inst)))


@pytest.mark.parametrize(
    "m,n", [(1, 1), (3, 5), (5, 3), (6, 6), (40, 5), (5, 40), (30, 30)]
)
def test_mu_families_match_chain_on_integer_data(m, n):
    rng = np.random.default_rng(m * 100 + n)
    for _ in range(3):
        assert_mu_matches_chain(random_instance(rng, m, n))
        assert_mu_matches_chain(random_scale_instance(rng, m, n))


# -- generated cases --------------------------------------------------------------


def _with_holes(draw, values, rows, cols):
    """``values`` as a rows x cols array; half the time, drawn entries blanked."""
    arr = np.array(values, dtype=float).reshape(rows, cols)
    if draw(st.booleans()):
        mask = draw(st.lists(st.booleans(), min_size=arr.size, max_size=arr.size))
        arr[np.array(mask).reshape(rows, cols)] = NEG_INF
    return arr


@st.composite
def stage2_instances(draw):
    """Small instances shaped like random_scale_instance, with holes.

    Draws (label, instance); the label names the hole and the transform.
    """
    m, n = draw(
        st.one_of(
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            st.sampled_from([(1, 12), (12, 1)]),
        )
    )
    size = m * n

    def ints(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))

    d = _with_holes(draw, ints(1, 8), m, n)
    b = np.where(np.isfinite(d), d, 4.0) + np.array(ints(0, 3)).reshape(m, n)
    b = _with_holes(draw, b.ravel(), m, n)
    a = _with_holes(draw, ints(-4, 4), m, n)
    c = _with_holes(draw, ints(-4, 4), m, n)
    hole = draw(st.sampled_from(["none", "B_rows", "B_cols", "D_rows", "D_cols", "B_all"]))
    if hole == "B_all":
        b[:] = NEG_INF
    elif hole != "none":
        target = b if hole[0] == "B" else d
        index = draw(st.integers(0, (m if hole.endswith("rows") else n) - 1))
        if hole.endswith("rows"):
            target[index, :] = NEG_INF
        else:
            target[:, index] = NEG_INF
    assume(np.isfinite(a).any() and np.isfinite(c).any())
    width = draw(st.sampled_from([2.0, 6.0, 1000.0]))
    g = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
    q = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), float)
    inst = ProblemInstance(
        m=m,
        n=n,
        A=TropMatrix(a),
        B=TropMatrix(b),
        C=TropMatrix(c),
        D=TropMatrix(d),
        g=TropMatrix.column(g),
        h=TropMatrix.column(g + width),
        q=TropMatrix.column(q),
        r=TropMatrix.column(q + width),
    )
    transform = draw(st.sampled_from(["integer", "thirds", "shift"]))
    if transform == "thirds":
        inst = thirds(inst)
    elif transform == "shift":
        inst = shifted(inst)
    return f"{hole}/{transform}", inst


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stage2_instances())
def test_generated_instances(case):
    label, inst = case
    assert_mu_matches_chain(inst)
    dm = _stage2_ready(inst)
    assume(dm is not None)
    event(label)
    assert_routes_agree(inst, dm)


# -- precondition ---------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2)])
def test_positive_cycle_raises(m, n):
    # A stage-one value far below the optimum leaves Q (and S) with a
    # positive cycle: the stage-two condition fails, and the term families
    # refuse to produce a value.
    inst = worked_example() if m == 1 else _scale(m, n)
    dm = derive_matrices(inst, TropValue(compute_mu(inst).value - 50.0))
    feasible, value = check_stage2_feasibility(dm, inst)
    assert not feasible and value.raw > 1e-9
    with pytest.raises(StarDiverges):
        eta_term_families(dm, inst)
