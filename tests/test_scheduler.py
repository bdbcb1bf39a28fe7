import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import FIXTURES, assert_close, rand_mat, with_open_lower_bounds

import tropsched as ts
from tropsched import inequality, linalg, scheduler
from tropsched.errors import (
    InternalConsistency,
    InvalidInstance,
    ParameterOutOfBox,
    StageOneInfeasible,
    StageTwoInfeasible,
)
from tropsched.instances import (
    random_feasible_instance,
    random_instance,
    random_scale_instance,
    worked_example,
)
from tropsched.io_cli import parse_instance
from tropsched.linalg import TropMatrix, conjugate, is_regular, mat_add, mat_mul, scalar_mul
from tropsched.scheduler import _corner_schedules, _distinct_points
from tropsched.semiring import TropValue, t_inv


def _col(*values):
    return TropMatrix.column(list(values))


def _instance(**overrides):
    base = dict(
        m=1,
        n=1,
        A=TropMatrix([[4]]),
        B=TropMatrix([[3]]),
        C=TropMatrix([[1]]),
        D=TropMatrix([[2]]),
        g=_col(0),
        h=_col(10),
        q=_col(5),
        r=_col(8),
    )
    base.update(overrides)
    return ts.ProblemInstance(**base)


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        _instance(C=TropMatrix([[None]]))
    with pytest.raises(InvalidInstance):
        _instance(A=TropMatrix([[None]]))
    with pytest.raises(InvalidInstance):
        _instance(h=_col(None))
    with pytest.raises(InvalidInstance):
        _instance(r=_col(None))
    with pytest.raises(InvalidInstance):
        _instance(g=_col(11))  # g > h
    with pytest.raises(InvalidInstance):
        _instance(q=_col(9))  # q > r
    with pytest.raises(InvalidInstance):
        _instance(A=TropMatrix([[1, 2]]))  # wrong shape


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("g", _col(0, 1), "g must be a column vector of length 1"),
        ("r", TropMatrix([[8, 9]]), "r must be a column vector of length 1"),
    ],
)
def test_instance_rejects_malformed_bounds(field, value, message):
    with pytest.raises(InvalidInstance) as info:
        _instance(**{field: value})
    assert str(info.value) == message


def test_stage1_feasibility_worked():
    feasible, value = ts.check_stage1_feasibility(worked_example())
    assert feasible
    assert_close(value, -3)


def test_stage1_feasibility_violations():
    # Release deadline too early for the earliest finish times.
    feasible, value = ts.check_stage1_feasibility(_instance(h=_col(2)))
    assert not feasible
    assert_close(value, 1)
    # Degenerate boxes still work when the lags fit: the single feasible
    # schedule's own lateness is the optimum.
    inst = _instance(g=_col(6), h=_col(6), q=_col(8), r=_col(8))
    feasible, _ = ts.check_stage1_feasibility(inst)
    assert feasible
    rep = ts.solve(inst)
    assert rep.status == "optimal"
    assert len(rep.extreme) == 1
    only = rep.extreme[0]
    assert only.x == _col(6) and only.y == _col(8)
    assert_close(rep.stage2.eta, only.objective.value)  # 4 + 6 - 8
    assert_close(rep.stage2.eta, 2)


def test_compute_mu_worked():
    inst = worked_example()
    assert_close(ts.compute_mu(inst), -1)
    terms = ts.mu_term_families(inst)
    assert_close(terms["cycle_mean"], -1)
    assert_close(terms["release_chain"], -11)
    assert_close(terms["deadline_chain"], -4)
    assert_close(terms["finish_chain"], -4)


def test_compute_mu_single_cycle():
    # Huge boxes leave only the lag cycle: mu = c - d.
    inst = _instance(
        C=TropMatrix([[7]]), D=TropMatrix([[3]]), g=_col(-100), h=_col(100), q=_col(-100), r=_col(100)
    )
    assert_close(ts.compute_mu(inst), 4)


def test_compute_mu_equal_projects_wide_boxes(rng):
    # With C = D and wide boxes the optimum is the cycle mean of C C~,
    # confirmed independently by the grid oracle.
    from tropsched.oracle import grid_search_stage1

    c = rand_mat(rng, 2, 2, density=1.0)
    inst = ts.ProblemInstance(
        m=2,
        n=2,
        A=rand_mat(rng, 2, 2, density=1.0),
        B=c,
        C=c,
        D=c,
        g=_col(-30, -30),
        h=_col(30, 30),
        q=_col(-30, -30),
        r=_col(30, 30),
    )
    mu = ts.compute_mu(inst)
    terms = ts.mu_term_families(inst)
    assert mu == terms["cycle_mean"]
    oracle = grid_search_stage1(inst)
    assert oracle.found
    assert abs(oracle.best.value - mu.value) <= 1e-6


def test_compute_mu_requires_feasibility():
    with pytest.raises(StageOneInfeasible):
        ts.compute_mu(_instance(h=_col(2)))


def test_stage1_solution_check_worked():
    inst = worked_example()
    mu = TropValue(-1)
    assert ts.stage1_solution_check(inst, mu, _col(6), _col(8))
    assert not ts.stage1_solution_check(inst, mu, _col(0), _col(5))
    assert not ts.stage1_solution_check(inst, mu, _col(11), _col(8))


def test_stage2_solution_check_rejects_a_violated_b_lag():
    # With B = 1 below D = 2, (6, 8) meets every stage-one constraint at
    # mu = -1 but not the second project's due-date-start lag y <= x + B.
    inst = _instance(B=TropMatrix([[1]]))
    mu = TropValue(-1)
    assert ts.stage1_solution_check(inst, mu, _col(6), _col(8))
    assert not ts.stage2_solution_check(inst, mu, _col(6), _col(8))
    assert ts.stage2_solution_check(inst, mu, _col(6), _col(8), slack=1.0)


def test_derive_matrices_worked():
    inst = worked_example()
    dm = ts.derive_matrices(inst, TropValue(-1))
    assert dm.D1conj == TropMatrix([[-2]])
    assert dm.C1 == TropMatrix([[2]])
    assert dm.P == TropMatrix([[2]])
    assert dm.Q == TropMatrix([[0]])
    assert dm.R == TropMatrix([[2]])
    assert dm.S == TropMatrix([[0]])


def test_derive_matrices_zero_entries():
    inst = _instance(B=TropMatrix([[None]]))
    dm = ts.derive_matrices(inst, TropValue(-1))
    assert dm.D1conj == TropMatrix([[-2]])  # conjugate of the zero B joins neutrally
    dm = ts.derive_matrices(inst, TropValue(0))
    assert dm.C1 == inst.C


def test_stage_one_cycle_family_reads_r_directly(rng):
    # Stage one's star has identity diagonal blocks, so its cycle family is
    # the cycle mean of R (or P) itself: the product by that identity block,
    # which the stage no longer forms, returns R to the bit, also with -0.0
    # among the lags C.
    real = scheduler.mat_mul
    for m, n in ((3, 5), (5, 3), (4, 4), (2, 6), (6, 2)):
        inst = random_scale_instance(rng, m, n)
        lags = inst.C.raw / 3.0
        lags[0, 0] = -0.0
        inst = replace(inst, C=TropMatrix(lags))
        dm = scheduler._stage_one(inst)
        assert dm.condition.feasible
        if m >= n:
            block, arcs = dm.condition.generator.raw[:n, :n], dm.R
        else:
            block, arcs = dm.condition.generator.raw[n:, n:], dm.P
        assert np.array_equal(block, TropMatrix.identity(min(m, n)).raw)
        product = real(TropMatrix._wrap(block), arcs).raw
        assert product.tobytes() == arcs.raw.tobytes()
        left_rows = []

        def recording(a, b):
            left_rows.append(a.rows)
            return real(a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheduler, "mat_mul", recording)
            terms = scheduler._term_families(dm, inst.C, inst, scheduler._MU_FAMILIES)
        assert left_rows == [1, 1, 1]  # only the three row-vector forms
        cycle = linalg.spectral_radius(TropMatrix._wrap(product))
        assert terms["cycle_mean"].raw.hex() == cycle.raw.hex()


def test_stage2_feasibility_worked():
    inst = worked_example()
    dm = ts.derive_matrices(inst, TropValue(-1))
    feasible, value = ts.check_stage2_feasibility(dm, inst)
    assert feasible
    assert_close(value, 0)


def test_stage2_infeasible_when_second_project_dominates():
    # Shrinking the second project's due-date-start lag below the first
    # project's forces a positive trace condition.
    inst = _instance(B=TropMatrix([[1]]))
    rep = ts.solve(inst)
    assert rep.status == "stage2_infeasible"
    assert_close(rep.stage1.mu, -1)
    assert_close(rep.stage2_value, 1)
    dm = ts.derive_matrices(inst, rep.stage1.mu)
    with pytest.raises(StageTwoInfeasible):
        ts.compute_eta(dm, inst)


def test_infeasible_stage_two_has_no_schedules():
    inst = _instance(B=TropMatrix([[1]]))
    s2 = ts.solve(inst).stage2
    assert not s2.feasible
    with pytest.raises(StageTwoInfeasible, match="cannot materialise"):
        ts.materialize(s2, inst.g, inst.q, inst)
    with pytest.raises(StageTwoInfeasible, match="no extreme points"):
        ts.extreme_points(s2, inst)


def test_stage2_infeasible_through_box_term():
    # The trace condition holds (Tr = 0) but the deadline box cannot be
    # reached through the combined lags: the path term alone exceeds the
    # unit, so infeasibility is reported with that value.
    from tropsched.linalg import trace_function

    inst = ts.ProblemInstance(
        m=1,
        n=2,
        A=TropMatrix([[2, -4]]),
        B=TropMatrix([[-2, 4]]),
        C=TropMatrix([[None, 2]]),
        D=TropMatrix([[4, 2]]),
        g=_col(0, -2),
        h=_col(4, 4),
        q=_col(3),
        r=_col(7),
    )
    rep = ts.solve(inst)
    assert rep.status == "stage2_infeasible"
    dm = rep.stage2.derived
    assert trace_function(dm.Q).raw <= 1e-9
    assert rep.stage2_value.value > 1e-9
    from tropsched.oracle import grid_search_stage2

    oracle = grid_search_stage2(inst, rep.stage1.mu)
    assert not oracle.found  # grid agrees the elevated region is empty


def test_compute_eta_worked():
    inst = worked_example()
    dm = ts.derive_matrices(inst, TropValue(-1))
    assert_close(ts.compute_eta(dm, inst), 2)
    terms = ts.eta_term_families(dm, inst)
    assert_close(terms["cycle_traces"], 2)
    assert_close(terms["worker_release"], -4)
    assert_close(terms["task_deadline"], -1)
    assert_close(terms["lateness_chain"], -1)


def test_identical_projects_agree_with_oracle(rng):
    # Second project identical to the first: no closed claim relates eta
    # to mu here, so the grid oracle is the reference.
    from tropsched.oracle import grid_search_stage1, grid_search_stage2

    for _ in range(5):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        c = rand_mat(rng, m, n, density=1.0)
        d = rand_mat(rng, m, n, density=1.0, lo=0, hi=6)
        inst = ts.ProblemInstance(
            m=m,
            n=n,
            A=c,
            B=d,
            C=c,
            D=d,
            g=TropMatrix(np.full((n, 1), -10.0)),
            h=TropMatrix(np.full((n, 1), 10.0)),
            q=TropMatrix(np.full((m, 1), -10.0)),
            r=TropMatrix(np.full((m, 1), 10.0)),
        )
        rep = ts.solve(inst)
        assert rep.status == "optimal"
        o1 = grid_search_stage1(inst)
        o2 = grid_search_stage2(inst, rep.stage1.mu)
        assert abs(o1.best.value - rep.stage1.mu.value) <= 1e-6
        assert abs(o2.best.value - rep.stage2.eta.value) <= 1e-4
        # re-solving the same project over its own optimal set keeps the
        # optimum value
        assert rep.stage2.eta.isclose(rep.stage1.mu, tol=1e-9)


def test_solution_set_worked():
    inst = worked_example()
    rep = ts.solve(inst)
    s2 = rep.stage2
    assert s2.x_generator == TropMatrix([[0]])
    assert s2.y_generator == TropMatrix([[0]])
    assert s2.u_lower == _col(0) and s2.u_upper == _col(6)
    assert s2.v_lower == _col(5) and s2.v_upper == _col(8)


def test_materialize_worked():
    inst = worked_example()
    rep = ts.solve(inst)
    s2 = rep.stage2
    sol = ts.materialize(s2, _col(0), _col(5), inst)
    assert sol.x == _col(3) and sol.y == _col(5)
    assert_close(sol.objective, 2)
    sol = ts.materialize(s2, _col(6), _col(8), inst)
    assert sol.x == _col(6) and sol.y == _col(8)
    assert_close(sol.objective, 2)
    with pytest.raises(ParameterOutOfBox):
        ts.materialize(s2, _col(7), _col(8), inst)
    with pytest.raises(ParameterOutOfBox):
        ts.materialize(s2, _col(6), _col(4), inst)


def test_extreme_points_worked():
    inst = worked_example()
    rep = ts.solve(inst)
    schedules = {(p.x.entry(0, 0).value, p.y.entry(0, 0).value) for p in rep.extreme}
    assert schedules == {(3.0, 5.0), (6.0, 8.0)}
    assert len(rep.extreme) <= inst.m + inst.n + 1


def test_extreme_points_spread(rng):
    # The candidate set has m + n + 1 corners.  The family attaining the
    # optimum always aligns at least two of them onto the same schedule
    # (the binding cycle or path couples their pullback bounds exactly),
    # so m + n distinct points is the most instances actually realise;
    # the bound still holds and must never be exceeded.
    best = {}
    for _ in range(60):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_feasible_instance(rng, m, n, max_tries=30)
        rep = ts.solve(inst)
        assert len(rep.extreme) <= m + n + 1
        best[(m, n)] = max(best.get((m, n), 0), len(rep.extreme))
    assert any(k == m + n for (m, n), k in best.items())


def test_random_feasible_instance_after_budget():
    # This generator state gives no feasible draw in the first 200 tries;
    # the widened draws after them must still find one.
    inst = random_feasible_instance(np.random.default_rng(284), 4, 6)
    assert (inst.m, inst.n) == (4, 6)
    assert ts.solve(inst).status == "optimal"


def _reference_schedule(result, u, v, inst):
    # One candidate at a time, through the matrix kernels: the paper's
    # z = A* (u; v) split into x and y, objective y~ A x.
    z = mat_mul(result.generator, TropMatrix(np.vstack((u.raw, v.raw)))).raw
    x, y = TropMatrix(z[: inst.n]), TropMatrix(z[inst.n :])
    if not is_regular(x) or not is_regular(y):
        return None
    return ts.ScheduleSolution(x, y, mat_mul(conjugate(y), mat_mul(inst.A, x)).entry(0, 0))


def _two_generator_schedule(result, u, v, inst):
    # The same schedule through the diagonal blocks alone, associated the
    # other way: x = X* (u + D1~ v), y = Y* (C_eta u + v).
    dm = result.derived
    c_eta = mat_add(scalar_mul(t_inv(result.eta), inst.A), dm.C1)
    x = mat_mul(result.x_generator, mat_add(u, mat_mul(dm.D1conj, v)))
    y = mat_mul(result.y_generator, mat_add(mat_mul(c_eta, u), v))
    return ts.ScheduleSolution(x, y, mat_mul(conjugate(y), mat_mul(inst.A, x)).entry(0, 0))


def _reference_extreme_points(result, inst):
    # Per-candidate route: every box corner on its own, then deduplication
    # against the points kept so far with allclose.  Also returns the
    # candidates without a schedule and counts the near duplicates (within
    # 1e-9 of a kept point, not equal to it) and the exact ones.
    n = inst.n
    points, irregular, near, exact = [], [], 0, 0
    for w in _box_corners(result).T:
        u, v = TropMatrix(w[:n, None]), TropMatrix(w[n:, None])
        sol = _reference_schedule(result, u, v, inst)
        if sol is None:
            irregular.append((u, v))
            continue
        same = [p for p in points if sol.x.allclose(p.x) and sol.y.allclose(p.y)]
        if not same:
            points.append(sol)
        elif all(sol.x != p.x or sol.y != p.y for p in same):
            near += 1
        else:
            exact += 1
    return points, irregular, near, exact


def _box_corners(result):
    # The lower corner, then each coordinate of (u, v) raised to its upper
    # bound, as columns.
    lower = np.vstack((result.u_lower.raw, result.v_lower.raw))
    upper = np.vstack((result.u_upper.raw, result.v_upper.raw))
    corners = np.repeat(lower, len(lower) + 1, axis=1)
    np.fill_diagonal(corners[:, 1:], upper[:, 0])
    return corners


def _transformed(inst, thirds, shift):
    # Every lag and bound divided by 3, and the lags and due-date bounds
    # shifted by 1e9 (a shift of y alone: g <= h and q <= r still hold).
    def mat(m, by=0.0):
        raw = m.raw / 3 if thirds else m.raw
        return TropMatrix(raw + (by if shift else 0.0))

    lags = {k: mat(getattr(inst, k), 1e9) for k in "ABCD"}
    return replace(
        inst, **lags, g=mat(inst.g), h=mat(inst.h), q=mat(inst.q, 1e9), r=mat(inst.r, 1e9)
    )


def _narrow_box(result, width):
    # Upper bounds moved to within width of the finite lower bounds, so
    # raising such a coordinate moves the schedule by at most width.
    def narrow(lower, upper):
        lo, up = lower.raw, upper.raw
        return TropMatrix(np.where(np.isfinite(lo), np.minimum(up, lo + width), up))

    return replace(
        result,
        u_upper=narrow(result.u_lower, result.u_upper),
        v_upper=narrow(result.v_lower, result.v_upper),
    )


def _sunken_box(result, rng):
    # Upper bounds 0 to 1e-9 below the finite lower bounds, as the box
    # check's tolerance allows: raising such a coordinate lowers it.  On
    # 1e9-sized bounds the depth is below one ulp, so the upper bound is the
    # lower one and the corner copies the lower corner exactly.
    def sink(lower, upper):
        lo = lower.raw
        depth = rng.choice([0.0, 2e-10, 1e-9], size=lo.shape)
        return TropMatrix(np.where(np.isfinite(lo), lo - depth, upper.raw))

    return replace(
        result,
        u_upper=sink(result.u_lower, result.u_upper),
        v_upper=sink(result.v_lower, result.v_upper),
    )


def _extreme_point_cases(rng):
    # Optimal results on random, sparse-with-open-bounds, thirds and
    # 1e9-shifted instances, m = 1 and n = 1 among them, each also with its
    # box narrowed to 4e-10 and 3e-9 and sunk below its lower bounds.
    instances = []
    for i in range(48):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        if i % 8 == 0:
            m = 1
        elif i % 8 == 1:
            n = 1
        if rng.random() < 0.5:
            inst = random_feasible_instance(rng, m, n)
        else:
            # Sparse lags leave zero entries in X* u, so open bounds give
            # candidates without a schedule.
            sparse = random_feasible_instance(rng, m, n, density=0.5)
            inst = with_open_lower_bounds(sparse, rng)
        thirds, shift = ((True, False), (False, True), (True, True))[i % 3]
        instances += [inst, _transformed(inst, thirds, shift)]
    for m, n in ((4, 15), (15, 4)):
        instances.append(random_scale_instance(rng, m, n))
    results = []
    for inst in instances:
        try:
            rep = ts.solve(inst)
        except (InvalidInstance, InternalConsistency):
            # Open bounds can leave the stage-one objective unbounded, and
            # 1e9-shifted data can fail the solution set's box check.
            continue
        if rep.status == "optimal":
            results.append((rep.stage2, inst))
    for result, inst in list(results):
        results += [
            (_narrow_box(result, 4e-10), inst),
            (_narrow_box(result, 3e-9), inst),
            (_sunken_box(result, rng), inst),
        ]
    return results


def test_extreme_points_match_per_candidate_reference(rng):
    shapes, irregular, near, exact, sunk = set(), 0, 0, 0, 0
    for result, inst in _extreme_point_cases(rng):
        ref, ref_irregular, ref_near, ref_exact = _reference_extreme_points(result, inst)
        got = ts.extreme_points(result, inst)
        assert len(got) == len(ref)
        for p, r in zip(got, ref):
            assert p.x == r.x and p.y == r.y and p.objective == r.objective
        for u, v in ref_irregular:
            with pytest.raises(ParameterOutOfBox, match="undefined components"):
                ts.materialize(result, u, v, inst)
        shapes.add((inst.m <= inst.n, min(inst.m, inst.n) == 1))
        irregular += len(ref_irregular)
        near += ref_near
        exact += ref_exact
        sunk += bool((result.u_upper.raw < result.u_lower.raw).any())
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}
    assert irregular > 0 and near > 0 and exact > 0 and sunk > 0


def _reference_kept_columns(points):
    # The deduplication loop of extreme_points before the kept block: each
    # candidate column against a fresh copy of the kept columns.
    first = {}
    for j, column in enumerate(points.T.copy()):
        first.setdefault(column.tobytes(), j)
    kept = []
    for j in first.values():
        diff = np.abs(points[:, kept] - points[:, j, None])
        if not (diff <= 1e-9).all(axis=0).any():
            kept.append(j)
    return kept


def test_distinct_points_match_per_candidate_loop(rng):
    # Random points with planted exact copies, copies with 0.0 and -0.0
    # swapped, and copies moved by 2e-10, 1e-9 and 1.1e-9 in some entries;
    # a plant can copy an earlier plant, so near points also form chains.
    exact_drops = near_drops = 0
    for _ in range(300):
        k, d = int(rng.integers(1, 10)), int(rng.integers(1, 30))
        scale = rng.choice([1.0, 1e3, 1e9])
        rows = list(rng.integers(-4, 5, (k, d)) * scale / 3)
        for _ in range(int(rng.integers(0, 12))):
            row = rows[int(rng.integers(len(rows)))]
            kind = rng.integers(3)
            if kind == 0:
                rows.append(row.copy())
            elif kind == 1:
                rows.append(np.where(row == 0, -row, row))
            else:
                step = rng.choice([2e-10, 1e-9, 1.1e-9])
                rows.append(row + step * rng.integers(-1, 2, d))
        candidates = np.array(rows)[rng.permutation(len(rows))]
        kept = _reference_kept_columns(candidates.T)
        block = _distinct_points(candidates)
        assert block.shape == (len(kept), d)
        assert block.tobytes() == candidates[kept].tobytes()
        distinct = len({row.tobytes() for row in candidates})
        exact_drops += len(candidates) - distinct
        near_drops += distinct - len(kept)
    assert exact_drops > 0 and near_drops > 0


def test_corner_schedules_match_materialize(rng):
    # The corner route builds each corner's schedule from the lower
    # corner's; every corner must give materialize's schedule bit for bit,
    # and a corner without a schedule must be refused by materialize.
    irregular = 0
    for result, inst in _extreme_point_cases(rng):
        n = inst.n
        z = _corner_schedules(result)
        regular = np.isfinite(z).all(axis=0)
        for j, w in enumerate(_box_corners(result).T):
            u, v = TropMatrix(w[:n, None]), TropMatrix(w[n:, None])
            if not regular[j]:
                irregular += 1
                with pytest.raises(ParameterOutOfBox, match="undefined components"):
                    ts.materialize(result, u, v, inst)
                continue
            sol = ts.materialize(result, u, v, inst)
            assert sol.x.raw.tobytes() == z[:n, j].tobytes()
            assert sol.y.raw.tobytes() == z[n:, j].tobytes()
    assert irregular > 0


def test_materialize_matches_reference(rng):
    # The two-generator route rounds D1~ v and C_eta u before X* and Y* add
    # to them, where the star's off-diagonal blocks X* D1~ and Y* C_eta add
    # to the parameters directly, so on general parameters the two can
    # differ in the last ulp.  On integer data with the parameters on a 1/8
    # grid every sum of both routes is exact whenever mu and eta are
    # multiples of 1/8 too, and the routes agree to the bit.
    def draw(lower, upper):
        w = lower.raw + rng.random(lower.shape) * (upper.raw - lower.raw)
        return TropMatrix(np.clip(np.round(w * 8) / 8, lower.raw, upper.raw))

    for _ in range(10):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inst = random_feasible_instance(rng, m, n)
        s2 = ts.solve(inst).stage2
        for _ in range(3):
            u, v = draw(s2.u_lower, s2.u_upper), draw(s2.v_lower, s2.v_upper)
            sol = ts.materialize(s2, u, v, inst)
            ref = _two_generator_schedule(s2, u, v, inst)
            assert sol.x == ref.x and sol.y == ref.y and sol.objective == ref.objective


@pytest.mark.parametrize("m,n", [(10, 100), (100, 10)])
def test_solve_memory_peak_is_bounded(m, n):
    # The extreme points are one-coordinate joins over the order-(m + n)
    # generator: a few (m + n)-square arrays of terms and prefix and suffix
    # maxima, and no product.
    inst = random_scale_instance(np.random.default_rng(0), m, n)
    ts.solve(inst)
    tracemalloc.start()
    try:
        ts.solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_one_closure_per_stage(monkeypatch):
    # Each stage is one double inequality, solved once, whose star closes
    # the stage's coupling block: a feasible solve solves stage one, stage
    # two and the optimal set, closing the stage-two block for the condition
    # and the optimal set's block for the solution set; stage one, whose
    # coupling block is empty, closes nothing.  Every closure is of the
    # smaller order.
    closures, systems = [], []
    star = linalg.kleene_star
    solve_system = inequality.solve_double_inequality

    def counting_star(a):
        closures.append(a.rows)
        return star(a)

    def counting_solve(*args):
        systems.append(args)
        return solve_system(*args)

    for name, mod in list(sys.modules.items()):
        if not name.startswith("tropsched"):
            continue
        if getattr(mod, "kleene_star", None) is star:
            monkeypatch.setattr(mod, "kleene_star", counting_star)
        if getattr(mod, "solve_double_inequality", None) is solve_system:
            monkeypatch.setattr(mod, "solve_double_inequality", counting_solve)
    rng = np.random.default_rng(11)
    cases = [worked_example(), parse_instance(FIXTURES["team_a"])]
    cases += [random_scale_instance(rng, m, n) for m, n in ((3, 7), (7, 3), (6, 6))]
    for inst in cases:
        p = min(inst.m, inst.n)
        closures.clear()
        systems.clear()
        assert ts.solve_stage1(inst).status == "stage1_solved"
        assert closures == [] and len(systems) == 1
        systems.clear()
        assert ts.solve(inst).status == "optimal"
        assert closures == [p, p] and len(systems) == 3
    # An infeasible stage stops the pipeline after its one system.
    for key, status, solved in (
        ("infeasible", "stage1_infeasible", 1),
        ("stage2_infeasible", "stage2_infeasible", 2),
    ):
        systems.clear()
        assert ts.solve(parse_instance(FIXTURES[key])).status == status
        assert len(systems) == solved


def test_solve_calls_each_traced_phase_once(monkeypatch):
    # The benchmark tracer times solve's stage-two phases by these public
    # names; solve must call each of them, once, so that none reads 0.
    names = (
        "solve_stage1",
        "derive_matrices",
        "check_stage2_feasibility",
        "eta_term_families",
        "solution_set",
        "extreme_points",
    )
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(scheduler, name, counting(name, getattr(scheduler, name)))
    inst = random_scale_instance(np.random.default_rng(3), 6, 9)
    assert ts.solve(inst).status == "optimal"
    assert calls == dict.fromkeys(names, 1)


@pytest.mark.parametrize("m,n", [(40, 40), (10, 100), (100, 10)])
def test_solve_product_budget(monkeypatch, m, n):
    # Every max-plus product of one feasible solve, from whichever module
    # calls it: 6 in the two coupled skew stars, 3 skew block products, 4
    # for the two stages' P and R, 1 for stage two's closure times its arcs,
    # 1 for the objectives of the kept extreme points and 12 with a vector
    # operand.  Both stage-two form tables are certified by the chain bound,
    # and the box corners are one-coordinate joins, with no product.  A
    # change that adds a product has to update this budget.
    real = linalg.mat_mul
    calls = []

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return real(a, b)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropsched") and getattr(module, "mat_mul", None) is real:
            monkeypatch.setattr(module, "mat_mul", counting)
    inst = random_scale_instance(np.random.default_rng(0), m, n)
    assert ts.solve(inst).status == "optimal"
    assert len(calls) == 27


@pytest.mark.xfail(
    strict=True,
    raises=InternalConsistency,
    reason="ROADMAP item 2: near 1e9 one ulp exceeds the absolute tolerance, "
    "so the solution set's box check fails at the computed optimum",
)
@pytest.mark.parametrize("m,n,seed", [(5, 5, 24), (5, 5, 33), (6, 6, 9)])
def test_solve_gauge_shifted_by_1e9(m, n, seed):
    # Every lag and bound divided by 3, then A-D, q and r shifted by 1e9:
    # a gauge copy of an optimal instance, so it is optimal too.
    inst = _transformed(random_scale_instance(np.random.default_rng(seed), m, n), True, True)
    assert ts.solve(inst).status == "optimal"


def test_solve_short_circuits():
    rep = ts.solve(_instance(h=_col(2)))
    assert rep.status == "stage1_infeasible"
    assert rep.stage1.mu is None and rep.stage2 is None
    rep = ts.solve(_instance(B=TropMatrix([[1]])))
    assert rep.status == "stage2_infeasible"
    assert rep.stage2.eta is None
    assert rep.stage2_value is not None


def test_lexicographic_consistency(rng):
    for _ in range(8):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_feasible_instance(rng, m, n)
        rep = ts.solve(inst)
        s2 = rep.stage2
        for sol in rep.extreme:
            assert ts.stage2_solution_check(inst, rep.stage1.mu, sol.x, sol.y)
            assert ts.stage1_solution_check(inst, rep.stage1.mu, sol.x, sol.y)
            assert_close(sol.objective, s2.eta.value)


def _relax_deadlines(inst, amount=2.0):
    return ts.ProblemInstance(
        m=inst.m,
        n=inst.n,
        A=inst.A,
        B=inst.B,
        C=inst.C,
        D=inst.D,
        g=inst.g,
        h=TropMatrix(inst.h.raw + amount),
        q=inst.q,
        r=TropMatrix(inst.r.raw + amount),
    )


def test_monotone_in_deadlines(rng):
    # Relaxing h or r enlarges the stage-one feasible set, so mu never
    # grows.  The second stage minimises over the stage-one *optimal* set,
    # which moves when mu improves, so eta is only monotone while mu stays
    # put (see test_relaxation_can_worsen_stage2 for the other case).
    for _ in range(8):
        m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = random_feasible_instance(rng, m, n)
        base = ts.solve(inst)
        wide = ts.solve(_relax_deadlines(inst))
        assert wide.status == "optimal"
        assert wide.stage1.mu.value <= base.stage1.mu.value + 1e-9
        if abs(wide.stage1.mu.value - base.stage1.mu.value) <= 1e-12:
            assert wide.stage2.eta.value <= base.stage2.eta.value + 1e-9


def test_relaxation_can_worsen_stage2():
    # Wider boxes improved the first stage (mu 5 -> 11/3), and the moved
    # optimal set left only worse second-stage schedules (eta 6 -> 23/3);
    # the penalty-grid oracle confirms both optima independently.
    from tropsched.io_cli import instance_from_dict
    from tropsched.oracle import grid_search_stage2

    doc = {
        "m": 3,
        "n": 3,
        "A": [[-3.0, -4.0, None], [-4.0, 3.0, 3.0], [0.0, 4.0, None]],
        "B": [[None, -1.0, 0.0], [-2.0, None, -2.0], [0.0, 1.0, 3.0]],
        "C": [[None, -2.0, 2.0], [-4.0, -1.0, 0.0], [3.0, None, None]],
        "D": [[-3.0, None, 0.0], [0.0, -2.0, -2.0], [2.0, -2.0, None]],
        "g": [1.0, 1.0, 1.0],
        "h": [4.0, 5.0, 6.0],
        "q": [0.0, 2.0, 0.0],
        "r": [2.0, 7.0, 6.0],
    }
    inst = instance_from_dict(doc)
    base = ts.solve(inst)
    wide = ts.solve(_relax_deadlines(inst))
    assert_close(base.stage1.mu, 5.0)
    assert_close(wide.stage1.mu, 11.0 / 3.0)
    assert_close(base.stage2.eta, 6.0)
    assert_close(wide.stage2.eta, 23.0 / 3.0)
    oracle = grid_search_stage2(_relax_deadlines(inst), wide.stage1.mu)
    assert oracle.found
    assert abs(oracle.best.value - wide.stage2.eta.value) <= 1e-4


def test_marginal_note():
    inst = worked_example()
    rep = ts.solve(inst)
    assert any("marginal" in note for note in rep.notes)  # stage-2 value is exactly 0
    # A stage-one condition value of exactly 0 is noted by stage one alone.
    from tropsched.io_cli import parse_instance

    inst = parse_instance(FIXTURES["team_a"])
    note = "stage-one condition value is within the marginal band"
    assert ts.solve_stage1(inst).notes == [note]
    assert ts.solve(inst).notes[0] == note
