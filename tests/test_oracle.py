import itertools
import math

import numpy as np
import pytest
from conftest import FIXTURES, NEG_INF, assert_close, rand_mat, rand_raw

import tropsched as ts
from tropsched.errors import GridTooLarge, StarDiverges
from tropsched.instances import random_feasible_instance, random_instance, worked_example
from tropsched.io_cli import parse_instance
from tropsched.linalg import TropMatrix, mat_add, mat_mul
from tropsched.oracle import (
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


def test_naive_star_is_the_explicit_power_join():
    # Thirds with -0.0 entries: the join starts from I and adds A itself,
    # not I A, so the sign of each zero entry of the star is A's.
    rng = np.random.default_rng(11)
    n = 4
    raw = -(rng.integers(0, 7, (n, n)) / 3)
    raw[rng.random((n, n)) < 0.2] = NEG_INF
    assert np.signbit(raw[raw == 0]).sum() >= 2
    a = TropMatrix._wrap(raw)
    for terms in (0, 1, n, 2 * n):
        expected, power = TropMatrix.identity(n), a
        for _ in range(terms - 1):
            expected = mat_add(expected, power)
            power = mat_mul(power, a)
        star = naive_star(a, terms)
        assert np.array_equal(star.raw.view(np.int64), expected.raw.view(np.int64))


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
        grid_search_stage1(inst)


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


# -- the grid evaluator against a definitional reference -----------------------


def _shifted(inst, scale, shift):
    # Lags divided by scale; times (g, h, q, r) divided and then shifted.
    lags = {name: TropMatrix(getattr(inst, name).raw / scale) for name in "ABCD"}
    times = {name: TropMatrix(getattr(inst, name).raw / scale + shift) for name in "ghqr"}
    return ts.ProblemInstance(m=inst.m, n=inst.n, **lags, **times)


def _holey_instance(rng, m, n):
    # Integer lags with many holes (-inf lags, so +inf due-date caps) and
    # some unbounded release times and earliest finish times.
    mats = {name: rand_raw(rng, m, n, density=0.6) for name in "ABCD"}
    for name in "AC":
        if not np.isfinite(mats[name]).any():
            mats[name][rng.integers(m), rng.integers(n)] = float(rng.integers(-5, 6))
    g = np.where(rng.random(n) < 0.2, NEG_INF, rng.integers(-3, 3, n).astype(float))
    q = np.where(rng.random(m) < 0.2, NEG_INF, rng.integers(-3, 3, m).astype(float))
    return ts.ProblemInstance(
        m=m,
        n=n,
        **{name: TropMatrix(raw) for name, raw in mats.items()},
        g=TropMatrix.column(g),
        h=TropMatrix.column(np.maximum(g, 0.0) + rng.integers(0, 6, n)),
        q=TropMatrix.column(q),
        r=TropMatrix.column(np.maximum(q, 0.0) + rng.integers(0, 6, m)),
    )


def _signed_zeros(inst, rng):
    # About half of the zero entries of the lags, q and r turned into -0.0.
    def flip(raw):
        return np.where((raw == 0.0) & (rng.random(raw.shape) < 0.5), -0.0, raw)

    mats = {name: TropMatrix(flip(getattr(inst, name).raw)) for name in "ABCDqr"}
    return ts.ProblemInstance(m=inst.m, n=inst.n, g=inst.g, h=inst.h, **mats)


# The references join terms one at a time, and a term equal to the running
# value replaces it, as NumPy's maximum and minimum keep their second
# argument on ties: of a +0.0 and a -0.0 the later one is kept.
def _join_max(acc, term):
    return term if term >= acc else acc


def _join_min(acc, term):
    return term if term <= acc else acc


def _reference_point(inst, mu, start):
    """Objective, violation and due dates at one start vector, entry by entry.

    A due-date cap joins the lagged starts and then r; a coupled lower bound
    joins q and then the lagged starts.
    """
    objective, violation, due = NEG_INF, 0.0, []
    obj_lags = inst.C.raw if mu is None else inst.A.raw
    caps = [inst.D.raw] if mu is None else [inst.D.raw, inst.B.raw]
    for i in range(inst.m):
        cap, low, finish = math.inf, inst.q.raw[i, 0], NEG_INF
        for j in range(inst.n):
            for lags in caps:
                if math.isfinite(lags[i, j]):
                    cap = _join_min(cap, lags[i, j] + start[j])
            if mu is not None and math.isfinite(inst.C.raw[i, j]):
                low = _join_max(low, (inst.C.raw[i, j] - mu) + start[j])
            if math.isfinite(obj_lags[i, j]):
                finish = _join_max(finish, obj_lags[i, j] + start[j])
        cap = _join_min(cap, inst.r.raw[i, 0])
        objective = _join_max(objective, finish - cap)
        violation = _join_max(violation, _join_max(low - cap, 0.0))
        due.append(cap)
    return objective, violation, due


def _reference_start_lower(inst, mu):
    caps = [inst.D.raw] if mu is None else [inst.D.raw, inst.B.raw]
    lower = []
    for j in range(inst.n):
        lo = NEG_INF
        for i in range(inst.m):
            for lags in caps:
                if math.isfinite(lags[i, j]):
                    lo = _join_max(lo, inst.q.raw[i, 0] - lags[i, j])
        lower.append(_join_max(inst.g.raw[j, 0], lo))
    return lower


def _hex(values):
    return [float(x).hex() for x in values]


def _zero_heavy_instance(rng, m, n):
    # Lags in {-1, -0.0, 0.0, 1} (B and D with holes), q in {-0.0, 0.0} and
    # r in {-0.0, 0.0, 1}: most joins and differences are ties between zeros
    # of both signs, and where r is 1 the sign of a zero cap that the
    # workers' terms decided is kept.
    lags = np.array([-1.0, -0.0, 0.0, 1.0, NEG_INF])
    ends = np.array([-0.0, 0.0, 1.0])
    return ts.ProblemInstance(
        m=m,
        n=n,
        **{name: TropMatrix(rng.choice(lags[:4], (m, n))) for name in "AC"},
        **{name: TropMatrix(rng.choice(lags, (m, n))) for name in "BD"},
        g=TropMatrix.column(np.full(n, -1.0)),
        h=TropMatrix.column(np.ones(n)),
        q=TropMatrix.column(rng.choice(ends[:2], m)),
        r=TropMatrix.column(rng.choice(ends, m)),
    )


def _evaluator_cases(rng, shapes):
    # (instance, start columns, scale, shift): integer data with holes (-inf
    # lags, so +inf due-date caps), as thirds and as thirds shifted by 1e9,
    # with signed zeros in the lags, q, r and starts of every other draw;
    # then zero-heavy instances.
    for m, n in shapes:
        for draw in range(8):
            base = _holey_instance(rng, m, n)
            for scale, shift in ((1, 0.0), (3, 0.0), (3, 1e9)):
                inst = _shifted(base, scale, shift)
                starts = rng.integers(-12, 13, (n, 20)) / scale + shift
                if shift == 0.0 and draw % 2:
                    inst = _signed_zeros(inst, rng)
                    starts[(starts == 0.0) & (rng.random(starts.shape) < 0.5)] = -0.0
                yield inst, starts, scale, shift
        for _ in range(4):
            starts = rng.choice([-1.0, -0.0, 0.0, 1.0], (n, 20))
            yield _zero_heavy_instance(rng, m, n), starts, 1, 0.0


def _block_points(blocks):
    # The points of blocks of runs, in block order, as lists.
    rows = []
    for block in blocks:
        rows += [list(p) for p in itertools.product(*(run.tolist() for run in block))]
    return rows


def _assert_block_matches(inst, mu, ev, block):
    # Every point of the product of the block's runs, in C order, against
    # the reference: objective, violation and due-date caps.  Returns the
    # caps.
    objective, violation, due_cap = ev.evaluate(block)
    points = _block_points([block])
    assert objective.shape == violation.shape == (len(points),)
    dues = []
    for k, start in enumerate(points):
        ref_obj, ref_viol, ref_due = _reference_point(inst, mu, start)
        assert _hex([objective[k], violation[k]]) == _hex([ref_obj, ref_viol])
        assert _hex(due_cap[:, k]) == _hex(ref_due)
        dues.extend(ref_due)
    return dues


def test_evaluator_matches_reference_loop(rng, monkeypatch):
    # Single start vectors as blocks of one-point runs, blocks with runs of
    # 1-3 points on different axes (n = 1 gives one run), and the blocks of
    # a grid cut into 7-point chunks whose first axis starts at a signed
    # zero.
    from tropsched import oracle
    from tropsched.oracle import _StageEvaluator

    monkeypatch.setattr(oracle, "_GRID_CHUNK", 7)
    zero_dues = set()
    shapes = [(1, 1), (1, 3), (3, 1), (2, 2), (2, 4), (4, 3)]
    for inst, starts, scale, shift in _evaluator_cases(rng, shapes):
        n = inst.n
        for mu in (None, float(rng.integers(-6, 7)) / scale):
            ev = _StageEvaluator(inst, mu)
            assert _hex(ev.start_lower) == _hex(_reference_start_lower(inst, mu))
            dues = []
            for start in starts.T:
                dues += _assert_block_matches(inst, mu, ev, list(start[:, None]))
            for turn in range(3):
                # Run d holds (d + turn) % 3 + 1 points, from column 4 on.
                block = [starts[d, 4 : 5 + (d + turn) % 3] for d in range(n)]
                dues += _assert_block_matches(inst, mu, ev, block)
            lo = [-0.0 if shift == 0.0 else shift] + starts[1:, 0].tolist()
            hi = [a + b / scale for a, b in zip(lo, rng.integers(0, 3, n))]
            for block in oracle._iter_grid(lo, hi, 0.5 / scale):
                dues += _assert_block_matches(inst, mu, ev, block)
            zero_dues.update(x.hex() for x in dues if x == 0.0)
    # Due dates of both zero signs occurred, so ties decided a sign.
    assert zero_dues == {"0x0.0p+0", "-0x0.0p+0"}


# -- grid blocks ---------------------------------------------------------------


def test_grid_blocks_enumerate_in_c_order(monkeypatch):
    # Each block is one run per axis: one-point runs, then a run cut from
    # one axis, then whole axes.  The blocks' products, concatenated, are
    # the grid in C order.  The last two boxes are cut at the default chunk
    # size too: on the middle axis (5 x 100 x 50 points), and on a last axis
    # that alone exceeds a chunk (2 x 5000 points).
    from tropsched import oracle

    boxes = [
        ([0.0, -1.0, 2.0], [1.2, 1.0, 3.4]),  # 4 x 5 x 4 points
        ([0.0, -1.0, 2.0], [1.2, 1.0, 2.0]),  # one-point last axis
        ([-1.0], [1.7]),  # n = 1
        ([0.0, 0.0, 0.0], [2.0, 49.5, 24.5]),
        ([0.0, 0.0], [0.5, 2499.5]),
    ]
    default = oracle._GRID_CHUNK
    cuts = []
    for lo, hi in boxes:
        axes = [oracle._axis_points(a, b, 0.5) for a, b in zip(lo, hi)]
        sizes = [len(ax) for ax in axes]
        expected = [list(p) for p in itertools.product(*(ax.tolist() for ax in axes))]
        for chunk in (default, 7, 1, max(1, sizes[-1] - 1)):
            monkeypatch.setattr(oracle, "_GRID_CHUNK", chunk)
            blocks = list(oracle._iter_grid(lo, hi, 0.5))
            for block in blocks:
                lens = [len(run) for run in block]
                assert len(lens) == len(axes) and math.prod(lens) <= chunk
                cut = max((d for d, k in enumerate(lens) if k < sizes[d]), default=0)
                assert all(k == 1 for k in lens[:cut]) and lens[cut + 1 :] == sizes[cut + 1 :]
            if chunk == default:
                cuts.append((len(blocks), cut))
            assert _block_points(blocks) == expected
    assert cuts == [(1, 0), (1, 0), (1, 0), (10, 1), (4, 1)]


def _oracle_bits(inst):
    # Both stages' results, floats as hex: found, best, u, v and history.
    # A found result's best and v are those of the reference at u.
    def bits(result, mu):
        vec = [None if m is None else _hex(m.raw[:, 0]) for m in (result.u, result.v)]
        best = None if result.best is None else float(result.best.value).hex()
        if result.found:
            ref_obj, _, ref_due = _reference_point(inst, mu, result.u.raw[:, 0].tolist())
            assert (best, vec[1]) == (float(ref_obj).hex(), _hex(ref_due))
        return result.found, best, *vec, _hex(result.history)

    out = [bits(grid_search_stage1(inst), None)]
    report = ts.solve(inst)
    if report.stage1.feasible:
        mu = report.stage1.mu
        out.append(bits(grid_search_stage2(inst, mu), float(mu.value)))
    return out


def test_grid_chunk_size_does_not_change_result(monkeypatch):
    # The enumeration order and the strict-< incumbent rule pick the
    # winner, so cutting the grid into blocks of any size gives the same
    # search: blocks of 7 points split every grid of the small instances,
    # and blocks of 999 points the n = 5-6 windows (up to 15625 points).
    from tropsched import oracle

    def bits(inst):
        try:
            return _oracle_bits(inst)
        except GridTooLarge:
            return "GridTooLarge"

    small = [parse_instance(path) for path in FIXTURES.values()]
    rng = np.random.default_rng(1414)
    shapes = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 4), (4, 4)]
    for k, (m, n) in enumerate(shapes * 2):
        draw = (random_feasible_instance if k % 3 else random_instance)(rng, m, n)
        small.append(_shifted(draw, 3, 1e9 if k % 2 else 0.0))
    large = []
    rng = np.random.default_rng(1415)
    for k, (m, n) in enumerate([(5, 6), (6, 6)] * 3):
        draw = (random_feasible_instance if k % 3 else random_instance)(rng, m, n)
        large.append(_shifted(draw, 3, 1e9 if k % 2 else 0.0))
    for insts, chunks in ((small, (7, 10**9)), (large, (999, 10**9))):
        default = [bits(inst) for inst in insts]
        assert sum(len(b) for b in default) > len(insts)  # some stage twos ran
        for chunk in chunks:
            monkeypatch.setattr(oracle, "_GRID_CHUNK", chunk)
            assert [bits(inst) for inst in insts] == default
        monkeypatch.setattr(oracle, "_GRID_CHUNK", oracle._GRID_CHUNK)
