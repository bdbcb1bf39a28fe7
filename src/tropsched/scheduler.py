"""Two-stage minimax lateness solver.

Two projects share worker start times and task due dates.  Stage one picks
the schedule set minimising the maximum lateness of the first project;
stage two minimises the second project's maximum lateness over that set.
Both optima come out in closed form, each the join of four term families
from one routine: stage one is stage two with an empty coupling block (D~
for the combined conjugate, C as the objective lags, C1 = Q = S = zero).
The cycle family is the maximum cycle mean of S* R (m >= n) or Q* P, the
closure read off the stage condition's star (one Karp pass at order
min(m, n)); the other three are root-scaled, degree-separated bilinear forms.
The full solution set is a pair of star generators acting on parameters
ranging over a box, with at most m + n + 1 extreme schedules; they are the
images of the box corners, all computed in one batched product.

Both stage conditions and the solution set are one tool: the double
inequality A z + b <= z <= d over z = (x, y), where A is skew block
diagonal with the due-date-start lag conjugates in one block and the
start-finish lags in the other, b = (g, q) and d = (h, r).  Stage one
uses no start-finish block, stage two the mu-scaled first-project lags,
and the solution set adds the eta-scaled second-project lags; each is a
call to ``inequality.solve_double_inequality`` on a ``SkewBlock``, whose
existence condition is the stage condition and whose star and box are
the generators and the parameter box.  Each stage is built once: its
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
    scalar_mul,
    spectral_radius,
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
    feasible: bool
    eta: TropValue | None
    x_generator: TropMatrix | None
    y_generator: TropMatrix | None
    u_lower: TropMatrix | None
    u_upper: TropMatrix | None
    v_lower: TropMatrix | None
    v_upper: TropMatrix | None
    derived: DerivedMatrices


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
        if self.stage2_value is None and self.stage2 is None:
            return "stage1_solved"  # pipeline stopped after stage one by request
        if self.stage2 is None or not self.stage2.feasible:
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
    the plain chain of powers of R or P.
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
    each one call to ``binomial.form_families`` at order min(m, n).  That
    routine also chooses how to fill the table (whole, pruned to the rows
    that can still reach a family, or as a plain P-chain when Q is all zero),
    and every choice gives the same families to the bit.

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
        cycle = spectral_radius(mat_mul(TropMatrix._wrap(star.raw[:n, :n]), dm.R))
    else:  # Q* P
        cycle = spectral_radius(mat_mul(TropMatrix._wrap(star.raw[n:, n:]), dm.P))

    lhs_g = mat_add(mat_mul(rc, dm.C1), hc)  # 1 x n
    lhs_q = mat_add(mat_mul(hc, dm.D1conj), rc)  # 1 x m
    lhs_a = mat_mul(rc, lags)  # 1 x n
    # The release and lateness families contract the same (R, S, g) table.
    release, lateness = form_families(
        dm.R, dm.S, inst.g, ((lhs_g, 0), (lhs_a, 1)), k_max
    )
    (deadline,) = form_families(dm.P, dm.Q, inst.q, ((lhs_q, 0),), k_max)
    return dict(zip(names, (cycle, release, deadline, lateness)))


def compute_eta(dm: DerivedMatrices, inst: ProblemInstance) -> TropValue:
    """Optimal stage-two maximum lateness over the stage-one optimal set."""
    feasible, value = check_stage2_feasibility(dm, inst)
    if not feasible:
        raise StageTwoInfeasible(f"stage two infeasible: condition value {value.raw}")
    return _optimum(eta_term_families(dm, inst), "stage-two")


def _c_eta(dm: DerivedMatrices, eta: TropValue, inst: ProblemInstance) -> TropMatrix:
    # Start-finish block of the optimal set: an objective of at most eta
    # reads eta~ A x <= y, which joins the mu-scaled first-project lags.
    return mat_add(scalar_mul(t_inv(eta), inst.A), dm.C1)


def solution_set(
    dm: DerivedMatrices, eta: TropValue, inst: ProblemInstance
) -> StageTwoResult:
    """Generators and parameter box describing every optimal schedule.

    The generators are the diagonal blocks of the star of the optimal
    set's skew block, (eta~ R + S)* for x and (eta~ P + Q)* for y; the
    parameter box is the double inequality's box, split into u and v.
    """
    box = _stage_box(inst, SkewBlock(dm.D1conj, _c_eta(dm, eta, inst)))
    if not box.feasible:
        raise InternalConsistency(
            "empty solution set at the computed optimum: "
            f"condition value {box.delta.raw}"
        )
    n = inst.n
    star, upper = box.generator.raw, box.upper.raw
    return StageTwoResult(
        feasible=True,
        eta=eta,
        x_generator=TropMatrix._wrap(star[:n, :n].copy()),
        y_generator=TropMatrix._wrap(star[n:, n:].copy()),
        u_lower=inst.g,
        u_upper=TropMatrix._wrap(upper[:n].copy()),
        v_lower=inst.q,
        v_upper=TropMatrix._wrap(upper[n:].copy()),
        derived=dm,
    )


def _schedules(
    result: StageTwoResult, w: np.ndarray, inst: ProblemInstance
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Schedules of the parameter columns w = (u; v), all in one product each:
    # X = X* (U + D1~ V), Y = Y* (C_eta U + V), and per column the objective
    # max_i (y~_i + (A x)_i).  Only the columns whose x and y are both
    # regular are returned (x, y and objectives), in their order in w.
    dm = result.derived
    n = inst.n
    u = TropMatrix._wrap(w[:n])
    v = TropMatrix._wrap(w[n:])
    x = mat_mul(result.x_generator, mat_add(u, mat_mul(dm.D1conj, v))).raw
    y = mat_mul(
        result.y_generator, mat_add(mat_mul(_c_eta(dm, result.eta, inst), u), v)
    ).raw
    regular = np.isfinite(x).all(axis=0) & np.isfinite(y).all(axis=0)
    x, y = x[:, regular], y[:, regular]
    ax = mat_mul(inst.A, TropMatrix._wrap(x)).raw
    # y is regular, so y~ is -y; adding 0.0 clears negative zeros as
    # ``conjugate`` does.
    objective = ((-y + 0.0) + ax).max(axis=0)
    return x, y, objective


def materialize(
    result: StageTwoResult,
    u: TropMatrix,
    v: TropMatrix,
    inst: ProblemInstance,
) -> ScheduleSolution:
    """Schedule for a concrete parameter choice inside the box.

    It is the one-column case of the batched product that
    ``extreme_points`` runs over every box corner: x = X* (u + D1~ v) and
    y = Y* (C_eta u + v), associated in that order.
    """
    if not result.feasible:
        raise StageTwoInfeasible("cannot materialise from an infeasible result")
    if not _vec_leq(result.u_lower, u) or not _vec_leq(u, result.u_upper):
        raise ParameterOutOfBox("u lies outside the parameter box")
    if not _vec_leq(result.v_lower, v) or not _vec_leq(v, result.v_upper):
        raise ParameterOutOfBox("v lies outside the parameter box")
    x, y, objective = _schedules(result, _stack(u, v).raw, inst)
    if not objective.size:
        raise ParameterOutOfBox(
            "parameters produce a schedule with undefined components"
        )
    return ScheduleSolution(
        x=TropMatrix._wrap(x),
        y=TropMatrix._wrap(y),
        objective=TropValue.from_raw(float(objective[0])),
    )


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


def extreme_points(
    result: StageTwoResult, inst: ProblemInstance
) -> list[ScheduleSolution]:
    """Extreme optimal schedules from the corners of the parameter box.

    Candidates are the all-lower parameter point plus, for each coordinate
    of (u, v), the point with that coordinate raised to its upper bound.
    All m + n + 1 of them are materialised in one batched product; those
    whose schedule has a zero-element component are dropped (zero-element
    lower bounds may not define a schedule), and the rest are deduplicated
    in candidate order, a candidate being kept unless its (x, y) lies
    within 1e-9 of an already kept one in every entry.  That leaves at
    most m + n + 1 distinct points.
    """
    if not result.feasible:
        raise StageTwoInfeasible("no extreme points for an infeasible result")
    lower = _stack(result.u_lower, result.v_lower).raw
    upper = _stack(result.u_upper, result.v_upper).raw
    candidates = np.repeat(lower, len(lower) + 1, axis=1)
    np.fill_diagonal(candidates[:, 1:], upper[:, 0])
    x, y, objective = _schedules(result, candidates, inst)
    points = np.vstack((x, y))
    kept: list[int] = []
    for j in range(points.shape[1]):
        diff = np.abs(points[:, kept] - points[:, j, None])
        if not (diff <= 1e-9).all(axis=0).any():
            kept.append(j)
    return [
        ScheduleSolution(
            x=TropMatrix._wrap(x[:, j : j + 1]),
            y=TropMatrix._wrap(y[:, j : j + 1]),
            objective=TropValue.from_raw(float(objective[j])),
        )
        for j in kept
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
            stage2=StageTwoResult(
                False, None, None, None, None, None, None, None, dm
            ),
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
