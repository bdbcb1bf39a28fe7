"""Two-stage minimax lateness solver.

Two projects share worker start times and task due dates.  Stage one picks
the schedule set minimising the maximum lateness of the first project;
stage two minimises the second project's maximum lateness over that set.
Both optima come out in closed form, each the join of four term families
from one routine: stage one is stage two with an empty coupling block (D~
for the combined conjugate, C as the objective lags, C1 = Q = S = zero).
The cycle family is the maximum cycle mean of S* R (m >= n) or Q* P, the
closure read off the stage condition's star (Karp at order min(m, n)); in
stage one that closure is the identity, and Karp runs on R or P itself.
The other three are root-scaled, degree-separated bilinear forms, read off
the chains R^k g and P^k q.  Karp's D table and both chains are
heaviest-walk tables of min(m, n) steps, one ``linalg.walk_table`` per
order: one batched pass per stage at m == n.
The full solution set is one star A* acting on parameters w = (u, v)
ranging over a box: every optimal schedule is z = (x, y) = A* w.  Its at
most m + n + 1 extreme schedules are the images of the box corners, each
a one-coordinate change of the lower corner's schedule.

Both stage conditions and the solution set are one tool: the double
inequality A z + b <= z <= d over z = (x, y), where A is skew block
diagonal with the due-date-start lag conjugates in one block and the
start-finish lags in the other, b = (g, q) and d = (h, r).  Stage one
uses no start-finish block, stage two the mu-scaled first-project lags,
and the solution set adds the eta-scaled second-project lags; each is a
call to ``inequality.solve_double_inequality`` on a ``SkewBlock``, whose
existence condition is the stage condition and whose star and box are
the solution set's generator and parameter box.  Each stage is built once: its
verdict and its term families are read off the same ``DerivedMatrices``,
so a feasible solve solves three double inequalities, stage one's, stage
two's and the solution set's.

All pipeline steps are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .binomial import form_families
from .blockstar import SkewBlock
from .errors import (
    InternalConsistency,
    InvalidInstance,
    ParameterOutOfBox,
    StageOneInfeasible,
    StageTwoInfeasible,
    StarDiverges,
)
from .inequality import BoxSolutionSet, solve_double_inequality
from .linalg import (
    FEASIBILITY_TOL,
    TropMatrix,
    conjugate,
    is_regular,
    mat_add,
    mat_mul,
    max_cycle_mean,
    scalar_mul,
    walk_table,
)
from .semiring import TropValue, t_inv, t_join

# A feasibility condition value v passes when v <= FEASIBILITY_TOL (from
# linalg); the slack absorbs representation error from root taking.  Values
# within MARGINAL_BAND of the unit are flagged as marginal in reports.
MARGINAL_BAND = 1e-7

# Names of the term families of each stage, in the order _term_families
# returns them: cycle, release, deadline and lateness.
_MU_FAMILIES = ("cycle_mean", "release_chain", "deadline_chain", "finish_chain")
_ETA_FAMILIES = ("cycle_traces", "worker_release", "task_deadline", "lateness_chain")


# -- data model --------------------------------------------------------------


@dataclass(frozen=True)
class ProblemInstance:
    """Shared-schedule two-project instance.

    m tasks, n workers.  A and B hold the second project's start-finish
    and due-date-start lags, C and D the first project's; g/h bound worker
    start times and q/r task due dates.  Entries may be the zero element
    (no constraint for that pair) except in h and r, which must be finite.
    """

    m: int
    n: int
    A: TropMatrix
    B: TropMatrix
    C: TropMatrix
    D: TropMatrix
    g: TropMatrix
    h: TropMatrix
    q: TropMatrix
    r: TropMatrix

    def __post_init__(self):
        m, n = self.m, self.n
        for name in ("A", "B", "C", "D"):
            mat = getattr(self, name)
            if mat.shape != (m, n):
                raise InvalidInstance(
                    f"{name} must be {m}x{n}, got {mat.shape[0]}x{mat.shape[1]}"
                )
        for name, size in (("g", n), ("h", n), ("q", m), ("r", m)):
            vec = getattr(self, name)
            if not vec.is_vector or vec.rows != size:
                raise InvalidInstance(f"{name} must be a column vector of length {size}")
        for name in ("h", "r"):
            if not is_regular(getattr(self, name)):
                raise InvalidInstance(f"{name} must be regular (no zero entries)")
        if self.C.is_zero_matrix():
            raise InvalidInstance("C must be a nonzero matrix")
        if self.A.is_zero_matrix():
            raise InvalidInstance("A must be a nonzero matrix")
        if not bool((self.g.raw <= self.h.raw).all()):
            raise InvalidInstance("worker start box is empty: g must not exceed h")
        if not bool((self.q.raw <= self.r.raw).all()):
            raise InvalidInstance("due date box is empty: q must not exceed r")


@dataclass(frozen=True)
class StageOneResult:
    feasible: bool
    mu: TropValue | None
    feasibility_value: TropValue


@dataclass(frozen=True)
class DerivedMatrices:
    """One stage's products and condition box (stage one: D1conj = D~, C for A,
    zero C1, Q, S).  The box's star closed S* (x block) if m >= n, else Q*.
    """

    D1conj: TropMatrix  # n x m, join of the conjugates of B and D
    C1: TropMatrix  # m x n, C scaled down by mu
    P: TropMatrix  # m x m, A @ D1conj
    Q: TropMatrix  # m x m, C1 @ D1conj
    R: TropMatrix  # n x n, D1conj @ A
    S: TropMatrix  # n x n, D1conj @ C1
    condition: BoxSolutionSet


@dataclass(frozen=True)
class StageTwoResult:
    """Every optimal schedule is (x, y) = generator (u; v), u and v in their boxes."""

    feasible: bool
    eta: TropValue | None
    generator: TropMatrix | None  # A*, order n + m
    u_lower: TropMatrix | None
    u_upper: TropMatrix | None
    v_lower: TropMatrix | None
    v_upper: TropMatrix | None
    derived: DerivedMatrices

    def _diagonal_block(self, block: slice) -> TropMatrix | None:
        if self.generator is None:
            return None
        return TropMatrix._wrap(self.generator.raw[block, block])

    @property
    def x_generator(self) -> TropMatrix | None:
        """X* = (eta~ R + S)*, a view of the generator's upper-left n x n block."""
        return self._diagonal_block(slice(None, self.derived.D1conj.rows))

    @property
    def y_generator(self) -> TropMatrix | None:
        """Y* = (eta~ P + Q)*, a view of the generator's lower-right m x m block."""
        return self._diagonal_block(slice(self.derived.D1conj.rows, None))


@dataclass(frozen=True)
class ScheduleSolution:
    x: TropMatrix  # worker start times (n-vector)
    y: TropMatrix  # task due dates (m-vector)
    objective: TropValue


@dataclass(frozen=True)
class SolveReport:
    """Everything the pipeline produced, in phase order."""

    instance: ProblemInstance
    stage1: StageOneResult
    stage1_terms: dict[str, TropValue] | None
    stage2_value: TropValue | None
    stage2: StageTwoResult | None
    stage2_terms: dict[str, TropValue] | None
    extreme: list[ScheduleSolution] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        if not self.stage1.feasible:
            return "stage1_infeasible"
        if self.stage2 is None:
            return "stage1_solved"  # pipeline stopped after stage one by request
        if not self.stage2.feasible:
            return "stage2_infeasible"
        return "optimal"


# -- helpers -----------------------------------------------------------------


def _conj_or_zero(mat: TropMatrix) -> TropMatrix:
    # The conjugate of an all-zero lag matrix is the all-zero matrix of the
    # transposed shape: no finite lag means no constraint at all.
    if mat.is_zero_matrix():
        return TropMatrix.zeros(mat.cols, mat.rows)
    return conjugate(mat)


def _vec_leq(a: TropMatrix, b: TropMatrix, slack: float = FEASIBILITY_TOL) -> bool:
    return bool((a.raw <= b.raw + slack).all())


def _stack(top: TropMatrix, bottom: TropMatrix) -> TropMatrix:
    return TropMatrix._wrap(np.vstack((top.raw, bottom.raw)))


def _stage_box(inst: ProblemInstance, block: SkewBlock) -> BoxSolutionSet:
    # The system x >= B y + g, y >= C x + q, x <= h, y <= r for block
    # = (B, C), as one double inequality over z = (x, y).
    return solve_double_inequality(
        block, _stack(inst.g, inst.q), _stack(inst.h, inst.r)
    )


def _stage(
    inst: ProblemInstance, d_conj: TropMatrix, c1: TropMatrix, lags: TropMatrix
) -> DerivedMatrices:
    # One stage's products and condition, lags being the objective's lags.
    # Q and S are the skew block's products C B and B C, so its star closes
    # the smaller without computing it again; with no coupling block (stage
    # one) they are zero, not products.
    block = SkewBlock(d_conj, c1)
    coupled = not c1.is_zero_matrix()
    return DerivedMatrices(
        D1conj=d_conj,
        C1=c1,
        P=mat_mul(lags, d_conj),
        Q=block.CB if coupled else TropMatrix.zeros(inst.m, inst.m),
        R=mat_mul(d_conj, lags),
        S=block.BC if coupled else TropMatrix.zeros(inst.n, inst.n),
        condition=_stage_box(inst, block),
    )


def _optimum(terms: dict[str, TropValue], stage: str) -> TropValue:
    # Join of the term families; the zero element means nothing bounds the
    # objective from below.
    value = t_join(terms.values())
    if value.is_zero:
        raise InvalidInstance(
            f"{stage} objective is unbounded below; the instance is degenerate"
        )
    return value


# -- stage one ----------------------------------------------------------------


def _stage_one(inst: ProblemInstance) -> DerivedMatrices:
    # Before mu is known no start-finish lag binds: D~ for the conjugate, an
    # all-zero coupling block, and C as the objective lags.
    return _stage(inst, _conj_or_zero(inst.D), TropMatrix.zeros(inst.m, inst.n), inst.C)


def check_stage1_feasibility(inst: ProblemInstance) -> tuple[bool, TropValue]:
    """Existence condition value for stage one and its verdict.

    A view of the stage-one build, whose ``DerivedMatrices`` also give
    the mu families: ``solve_stage1`` reads both off one build.
    """
    dm = _stage_one(inst)
    return dm.condition.feasible, dm.condition.delta


def mu_term_families(inst: ProblemInstance) -> dict[str, TropValue]:
    """The stage-one optimum split into its term families.

    cycle_mean: largest mean of the alternating first-project lag cycles;
    release_chain: root-scaled paths from worker releases back to release
    deadlines; deadline_chain: the same through task due-date bounds;
    finish_chain: paths from releases to task deadlines through the
    start-finish lags.  The optimum is the join of all four.  They are the
    stage-two families with P = C D~, R = D~ C, zero C1, Q, S and lags C,
    read off the stage-one build that also holds the stage condition.  With
    Q and S all zero, ``binomial.form_families`` reads each form family off
    the plain chain of powers of R or P, and the cycle family is the
    maximum cycle mean of R or P itself, with no product by the identity
    closure.  Karp's D table and the two chains are one batched
    ``linalg.walk_table`` pass when m == n (``eta_term_families`` says how
    they are grouped otherwise).
    """
    return _term_families(_stage_one(inst), inst.C, inst, _MU_FAMILIES)


def compute_mu(inst: ProblemInstance) -> TropValue:
    """Optimal stage-one maximum lateness."""
    stage1 = solve_stage1(inst).stage1
    if not stage1.feasible:
        raise StageOneInfeasible(
            f"stage one infeasible: condition value {stage1.feasibility_value.raw}"
        )
    return stage1.mu


def stage1_solution_check(
    inst: ProblemInstance,
    mu: TropValue,
    u: TropMatrix,
    v: TropMatrix,
    slack: float = FEASIBILITY_TOL,
) -> bool:
    """Whether (u, v) solves the stage-one problem at optimum mu."""
    dconj = _conj_or_zero(inst.D)
    v_low = mat_add(mat_mul(scalar_mul(t_inv(mu), inst.C), u), inst.q)
    u_low = mat_add(mat_mul(dconj, v), inst.g)
    return (
        _vec_leq(v_low, v, slack)
        and _vec_leq(v, inst.r, slack)
        and _vec_leq(u_low, u, slack)
        and _vec_leq(u, inst.h, slack)
    )


# -- stage two ----------------------------------------------------------------


def derive_matrices(inst: ProblemInstance, mu: TropValue) -> DerivedMatrices:
    """Stage two's products and condition (``check_stage2_feasibility`` reads it)."""
    d1conj = mat_add(_conj_or_zero(inst.B), _conj_or_zero(inst.D))
    return _stage(inst, d1conj, scalar_mul(t_inv(mu), inst.C), inst.A)


def check_stage2_feasibility(
    dm: DerivedMatrices, inst: ProblemInstance
) -> tuple[bool, TropValue]:
    """Stage two's existence condition value and verdict, from ``dm.condition``."""
    return dm.condition.feasible, dm.condition.delta


def eta_term_families(
    dm: DerivedMatrices, inst: ProblemInstance
) -> dict[str, TropValue]:
    """The stage-two optimum split into its four term families.

    cycle_traces: the largest ratio of weight to P-arc count over closed
    walks in the graph of P + Q (the two projects' lag interactions);
    worker_release: bilinear forms from the release times g; task_deadline:
    forms from the earliest finish times q; lateness_chain: forms through
    the second project's start-finish lags A.

    The cycle term is the maximum cycle mean of Q* P.  Proof: tr T[k, p-k]
    is the heaviest closed walk of length <= p with exactly k P-arcs, and
    every pure-Q cycle is non-positive, so the join of their k-th roots is
    the best elementary-cycle ratio, which is the cycle mean of Q* P, or of
    S* R.  The closure is the block that the condition's star closed
    directly: S* when m >= n (S* R at m == n too), Q* when m < n.

    The three form families are joins of rooted per-degree forms read off
    two vector tables of the (k, l) triangle, on (R, S, g) and on (P, Q, q),
    each one call to ``binomial.form_families`` at order min(m, n).  Karp's
    D table of the cycle arcs and the tables' pure chains R^k g and P^k q
    are all heaviest-walk tables of min(m, n) steps, and those of one order
    are one ``linalg.walk_table`` call: at m == n one batch of three, else
    Karp's with the chain of order min(m, n), and the larger chain alone.
    ``form_families`` takes its chain from there, and also chooses how to
    fill the table: the plain P-chain when Q is
    all zero or when a certificate shows that no walk with a Q-arc reaches
    a family, either a bound from the chain's largest entries with no
    product (every table of ``random_scale_instance``) or else one product;
    otherwise the rows that can still reach a family, or the whole triangle
    for a family with no pure-P walk.  Every choice gives the same families
    to the bit.

    Requires a passing stage-two condition (``check_stage2_feasibility``):
    when that star diverged, StarDiverges is raised with its trace value.
    """
    return _term_families(dm, inst.A, inst, _ETA_FAMILIES)


def _term_families(
    dm: DerivedMatrices, lags: TropMatrix, inst: ProblemInstance, names: tuple[str, ...]
) -> dict[str, TropValue]:
    # Cycle, release, deadline and lateness families of either stage, keyed
    # by names, with lags the stage's objective start-finish lags (C or A).
    hc = conjugate(inst.h)
    rc = conjugate(inst.r)
    k_max = min(inst.m, inst.n)

    star, tr = dm.condition.generator, dm.condition.delta
    if star is None:
        raise StarDiverges(f"star diverges: trace function value {tr.raw}", tr)
    n = inst.n
    if inst.m >= n:  # S* R
        closure, arcs = star.raw[:n, :n], dm.R
    else:  # Q* P
        closure, arcs = star.raw[n:, n:], dm.P
    # In stage one, with no coupling block, the closure is the identity, and
    # I R is R to the bit, so no product is taken.  R (or P) holds no -0.0:
    # each of its sums has a term of D~, which ``conjugate`` leaves without
    # -0.0, and a float sum is -0.0 only when both terms are.
    if not dm.C1.is_zero_matrix():
        arcs = mat_mul(TropMatrix._wrap(closure), arcs)

    # The stage's three walk recursions of k_max steps: Karp's D table of the
    # cycle arcs from 0, and the chains R^k g and P^k q, on the rows of R^T
    # and P^T.  Those of one order share one ``walk_table`` call: all three
    # at m == n, else the two of order min(m, n), and the larger chain alone.
    orders = (k_max, n, inst.m)
    sources = (
        (arcs.raw, 0.0),
        (dm.R.raw.T, inst.g.raw[:, 0]),
        (dm.P.raw.T, inst.q.raw[:, 0]),
    )
    walks = [None] * 3
    for order in set(orders):
        batch = [i for i in range(3) if orders[i] == order]
        mats = np.empty((len(batch), order, order))
        starts = np.empty((len(batch), order))
        for j, i in enumerate(batch):
            mats[j], starts[j] = sources[i]
        table = walk_table(mats, starts, k_max)
        for j, i in enumerate(batch):
            walks[i] = table[:, j]
    cycle = max_cycle_mean(walks[0])

    lhs_g = mat_add(mat_mul(rc, dm.C1), hc)  # 1 x n
    lhs_q = mat_add(mat_mul(hc, dm.D1conj), rc)  # 1 x m
    lhs_a = mat_mul(rc, lags)  # 1 x n
    # The release and lateness families contract the same (R, S, g) table.
    release, lateness = form_families(
        dm.R, dm.S, inst.g, ((lhs_g, 0), (lhs_a, 1)), k_max, chain=walks[1]
    )
    (deadline,) = form_families(
        dm.P, dm.Q, inst.q, ((lhs_q, 0),), k_max, chain=walks[2]
    )
    return dict(zip(names, (cycle, release, deadline, lateness)))


def compute_eta(dm: DerivedMatrices, inst: ProblemInstance) -> TropValue:
    """Optimal stage-two maximum lateness over the stage-one optimal set."""
    feasible, value = check_stage2_feasibility(dm, inst)
    if not feasible:
        raise StageTwoInfeasible(f"stage two infeasible: condition value {value.raw}")
    return _optimum(eta_term_families(dm, inst), "stage-two")


def solution_set(
    dm: DerivedMatrices, eta: TropValue, inst: ProblemInstance
) -> StageTwoResult:
    """The star and parameter box describing every optimal schedule.

    The generator is the whole star A* of the optimal set's skew block
    (D1~, C_eta), C_eta = eta~ A + C1: every optimal schedule is z = A* w for
    w = (u, v) in the double inequality's box, split into u and v.  Its
    diagonal blocks are (eta~ R + S)* and (eta~ P + Q)*, and its off-diagonal
    blocks X* D1~ and Y* C_eta carry v into x and u into y.
    """
    # An objective of at most eta reads eta~ A x <= y, which joins the
    # mu-scaled first-project lags.
    c_eta = mat_add(scalar_mul(t_inv(eta), inst.A), dm.C1)
    box = _stage_box(inst, SkewBlock(dm.D1conj, c_eta))
    if not box.feasible:
        raise InternalConsistency(
            "empty solution set at the computed optimum: "
            f"condition value {box.delta.raw}"
        )
    n = inst.n
    upper = box.upper.raw
    return StageTwoResult(
        feasible=True,
        eta=eta,
        generator=box.generator,
        u_lower=inst.g,
        u_upper=TropMatrix._wrap(upper[:n].copy()),
        v_lower=inst.q,
        v_upper=TropMatrix._wrap(upper[n:].copy()),
        derived=dm,
    )


def _objectives(z: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    # max_i (y~_i + (A x)_i) per column of regular schedules z = (x, y).  y
    # is regular, so y~ is -y; adding 0.0 clears negative zeros as
    # ``conjugate`` does.
    ax = mat_mul(inst.A, TropMatrix._wrap(z[: inst.n])).raw
    return ((-z[inst.n :] + 0.0) + ax).max(axis=0)


def _corner_schedules(result: StageTwoResult) -> np.ndarray:
    # z = A* w of the m + n + 1 box corners, regular or not, one column each
    # in candidate order: the lower corner w = (g, q) in column 0, then w
    # with coordinate i raised to its upper bound in column i + 1.  Only w_i
    # moves, so (A* w)_r = max_k fl(A*_rk + w_k) is the join of the lower
    # corner's terms k != i, read off their prefix and suffix maxima, and
    # the changed term fl(A*_ri + upper_i): the product's own sums, so
    # ``materialize``'s bits, also when upper_i lies below lower_i.
    star = result.generator.raw
    lower = _stack(result.u_lower, result.v_lower).raw[:, 0]
    upper = _stack(result.u_upper, result.v_upper).raw[:, 0]
    terms = star + lower
    size = len(lower)
    before = np.full((size, size + 1), -np.inf)
    np.maximum.accumulate(terms, axis=1, out=before[:, 1:])
    after = np.full((size, size + 1), -np.inf)
    after[:, :size] = np.maximum.accumulate(terms[:, ::-1], axis=1)[:, ::-1]
    z = np.empty((size, size + 1))
    z[:, 0] = before[:, size]
    np.maximum(np.maximum(before[:, :size], after[:, 1:]), star + upper, out=z[:, 1:])
    return z


def materialize(
    result: StageTwoResult,
    u: TropMatrix,
    v: TropMatrix,
    inst: ProblemInstance,
) -> ScheduleSolution:
    """Schedule for a concrete parameter choice inside the box.

    z = A* (u; v), one product with the full generator; x is a view of its
    first n entries and y of the rest.  ``extreme_points`` builds the box
    corners' schedules as one block of one-coordinate joins, tested
    against this route bit for bit.
    """
    if not result.feasible:
        raise StageTwoInfeasible("cannot materialise from an infeasible result")
    if not _vec_leq(result.u_lower, u) or not _vec_leq(u, result.u_upper):
        raise ParameterOutOfBox("u lies outside the parameter box")
    if not _vec_leq(result.v_lower, v) or not _vec_leq(v, result.v_upper):
        raise ParameterOutOfBox("v lies outside the parameter box")
    z = mat_mul(result.generator, _stack(u, v)).raw
    if not np.isfinite(z).all():
        raise ParameterOutOfBox(
            "parameters produce a schedule with undefined components"
        )
    x, y = TropMatrix._wrap(z[: inst.n]), TropMatrix._wrap(z[inst.n :])
    return ScheduleSolution(x, y, TropValue.from_raw(float(_objectives(z, inst)[0])))


def stage2_solution_check(
    inst: ProblemInstance,
    mu: TropValue,
    x: TropMatrix,
    y: TropMatrix,
    slack: float = FEASIBILITY_TOL,
) -> bool:
    """Whether (x, y) satisfies every constraint of the stage-two problem."""
    bconj = _conj_or_zero(inst.B)
    if not _vec_leq(mat_mul(bconj, y), x, slack):
        return False
    return stage1_solution_check(inst, mu, x, y, slack)


def _distinct_points(candidates: np.ndarray) -> np.ndarray:
    # The rows of candidates (one point each, row-major) that
    # ``extreme_points`` keeps, in order: a candidate is dropped if its bytes
    # repeat an earlier one's, or if it lies within 1e-9 in every entry of
    # a row kept before it.  The kept rows fill a block allocated for every
    # candidate the byte pass leaves; each candidate is compared with a
    # view of the rows kept so far.
    first: dict[bytes, int] = {}
    for j, point in enumerate(candidates):
        first.setdefault(point.tobytes(), j)
    block = np.empty((len(first), candidates.shape[1]))
    kept = 0
    for j in first.values():
        point = candidates[j]
        if not (np.abs(block[:kept] - point) <= 1e-9).all(axis=1).any():
            block[kept] = point
            kept += 1
    return block[:kept]


def extreme_points(
    result: StageTwoResult, inst: ProblemInstance
) -> list[ScheduleSolution]:
    """Extreme optimal schedules from the corners of the parameter box.

    Candidates are the all-lower parameter point plus, for each coordinate
    of w = (u, v), the point with that coordinate raised to its upper
    bound.  Their schedules z = A* w are the columns of one block, built
    from the lower corner's with no product: each corner moves one
    coordinate of w, so its schedule is a one-coordinate join of the lower
    corner's terms, exact also where an upper bound lies up to the
    feasibility tolerance below its lower bound; each is the schedule
    ``materialize`` builds through the kernels for that corner, to the
    bit.  The columns with a zero-element entry are dropped (zero-element
    lower bounds may not define a schedule), and the rest, copied once
    into rows, are deduplicated in candidate order, a candidate being kept
    unless its z lies within 1e-9 of an already kept one in every entry;
    exact copies of an earlier candidate go first, since one is always
    dropped.  That leaves at most m + n + 1 distinct points, whose
    objectives are the only ones computed.  The kept points are the rows
    of one row-major block, in candidate order, and each solution's x and
    y are views of its row.
    """
    if not result.feasible:
        raise StageTwoInfeasible("no extreme points for an infeasible result")
    z = _corner_schedules(result)
    block = _distinct_points(z.T[np.isfinite(z).all(axis=0)])
    objective = _objectives(block.T, inst)
    n = inst.n
    return [
        ScheduleSolution(
            x=TropMatrix._wrap(block[j, :n, None]),
            y=TropMatrix._wrap(block[j, n:, None]),
            objective=TropValue.from_raw(float(objective[j])),
        )
        for j in range(len(block))
    ]


# -- pipeline -----------------------------------------------------------------


def solve_stage1(inst: ProblemInstance) -> SolveReport:
    """Stage one alone: its condition, and mu with its terms when it holds.

    The verdict, condition value and term families are all read off one
    stage-one builder call.  The report notes a condition value within the
    marginal band.
    """
    dm = _stage_one(inst)
    feasible, value = dm.condition.feasible, dm.condition.delta
    notes = []
    if abs(value.raw) <= MARGINAL_BAND:
        notes.append("stage-one condition value is within the marginal band")
    if not feasible:
        stage1, terms = StageOneResult(False, None, value), None
    else:
        terms = _term_families(dm, inst.C, inst, _MU_FAMILIES)
        stage1 = StageOneResult(True, _optimum(terms, "stage-one"), value)
    return SolveReport(
        instance=inst,
        stage1=stage1,
        stage1_terms=terms,
        stage2_value=None,
        stage2=None,
        stage2_terms=None,
        notes=notes,
    )


def solve(inst: ProblemInstance) -> SolveReport:
    """Run the full pipeline, stopping at the first failing condition."""
    report = solve_stage1(inst)
    if not report.stage1.feasible:
        return report
    notes = list(report.notes)

    dm = derive_matrices(inst, report.stage1.mu)
    if not bool(np.isfinite(dm.D1conj.raw).any(axis=1).all()):
        notes.append(
            "some worker has no finite due-date-start lag in either project; "
            "the corresponding chain terms join as the zero element"
        )
    s2_feasible, s2_value = check_stage2_feasibility(dm, inst)
    if abs(s2_value.raw) <= MARGINAL_BAND:
        notes.append("stage-two condition value is within the marginal band")
    if not s2_feasible:
        return replace(
            report,
            stage2_value=s2_value,
            stage2=StageTwoResult(False, None, None, None, None, None, None, dm),
            notes=notes,
        )
    terms2 = eta_term_families(dm, inst)
    result = solution_set(dm, _optimum(terms2, "stage-two"), inst)
    return replace(
        report,
        stage2_value=s2_value,
        stage2=result,
        stage2_terms=terms2,
        extreme=extreme_points(result, inst),
        notes=notes,
    )
