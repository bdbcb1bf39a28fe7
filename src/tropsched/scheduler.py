"""Two-stage minimax lateness solver.

Two projects share worker start times and task due dates.  Stage one picks
the schedule set minimising the maximum lateness of the first project;
stage two minimises the second project's maximum lateness over that set.
Both optima come out in closed form: the stage-one value mu joins a cycle
mean with root-scaled boundary-path weights, and the stage-two value eta
joins four term families.  Its cycle family is the maximum cycle mean of
Q* P (one star and one Karp pass at order min(m, n)); the other three are
root-scaled, degree-separated bilinear forms.
The full solution set is a pair of star generators acting on parameters
ranging over a box, with at most m + n + 1 extreme schedules.

All pipeline steps are pure functions over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binomial import form_columns
from .errors import (
    InternalConsistency,
    InvalidInstance,
    ParameterOutOfBox,
    StageOneInfeasible,
    StageTwoInfeasible,
    StarDiverges,
)
from .linalg import (
    TropMatrix,
    conjugate,
    is_regular,
    kleene_star,
    mat_add,
    mat_mul,
    scalar_mul,
    spectral_radius,
    trace_function,
)
from .semiring import TropValue, t_add, t_inv, t_join, t_pow

# A feasibility condition value v passes when v <= FEASIBILITY_SLACK; the
# slack absorbs representation error from root taking.  Values within
# MARGINAL_BAND of the unit are flagged as marginal in reports.
FEASIBILITY_SLACK = 1e-9
MARGINAL_BAND = 1e-7

_NEG_INF = float("-inf")


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
    """Products shared by every stage-two quantity."""

    D1conj: TropMatrix  # n x m, join of the conjugates of B and D
    C1: TropMatrix  # m x n, C scaled down by mu
    P: TropMatrix  # m x m, A @ D1conj
    Q: TropMatrix  # m x m, C1 @ D1conj
    R: TropMatrix  # n x n, D1conj @ A
    S: TropMatrix  # n x n, D1conj @ C1


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


def _scalar(mat: TropMatrix) -> TropValue:
    return mat.entry(0, 0)


def _vec_leq(a: TropMatrix, b: TropMatrix, slack: float = FEASIBILITY_SLACK) -> bool:
    return bool((a.raw <= b.raw + slack).all())


# -- stage one ----------------------------------------------------------------


def check_stage1_feasibility(inst: ProblemInstance) -> tuple[bool, TropValue]:
    """Existence condition value for stage one and its verdict."""
    hc = conjugate(inst.h)  # 1 x n
    rc = conjugate(inst.r)  # 1 x m
    dconj = _conj_or_zero(inst.D)  # n x m
    value = t_add(
        _scalar(mat_mul(hc, inst.g)),
        _scalar(mat_mul(mat_add(mat_mul(hc, dconj), rc), inst.q)),
    )
    return value.raw <= FEASIBILITY_SLACK, value


def mu_term_families(inst: ProblemInstance) -> dict[str, TropValue]:
    """The stage-one optimum split into its term families.

    cycle_mean: largest mean of the alternating first-project lag cycles;
    release_chain: root-scaled paths from worker releases back to release
    deadlines; deadline_chain: the same through task due-date bounds;
    finish_chain: paths from releases to task deadlines through the
    start-finish lags.  The optimum is the join of all four.
    """
    hc = conjugate(inst.h)
    rc = conjugate(inst.r)
    dconj = _conj_or_zero(inst.D)
    k_max = min(inst.m, inst.n)

    core = (
        mat_mul(inst.C, dconj) if inst.m <= inst.n else mat_mul(dconj, inst.C)
    )
    cycle_mean = spectral_radius(core)

    release = TropValue.zero()
    z = hc  # 1 x n, accumulates h~ (D~ C)^k
    for k in range(1, k_max + 1):
        z = mat_mul(mat_mul(z, dconj), inst.C)
        release = t_add(release, _pow_or_zero(_scalar(mat_mul(z, inst.g)), 1.0 / k))

    deadline = TropValue.zero()
    w = mat_add(mat_mul(hc, dconj), rc)  # 1 x m, accumulates (h~ D~ + r~)(C D~)^k
    for k in range(1, k_max + 1):
        w = mat_mul(mat_mul(w, inst.C), dconj)
        deadline = t_add(deadline, _pow_or_zero(_scalar(mat_mul(w, inst.q)), 1.0 / k))

    finish = TropValue.zero()
    f = mat_mul(rc, inst.C)  # 1 x n, accumulates r~ C (D~ C)^k
    for k in range(0, k_max + 1):
        finish = t_add(
            finish, _pow_or_zero(_scalar(mat_mul(f, inst.g)), 1.0 / (k + 1))
        )
        f = mat_mul(mat_mul(f, dconj), inst.C)

    return {
        "cycle_mean": cycle_mean,
        "release_chain": release,
        "deadline_chain": deadline,
        "finish_chain": finish,
    }


def _pow_or_zero(v: TropValue, e: float) -> TropValue:
    return TropValue.zero() if v.is_zero else t_pow(v, e)


def compute_mu(inst: ProblemInstance) -> TropValue:
    """Optimal stage-one maximum lateness."""
    feasible, value = check_stage1_feasibility(inst)
    if not feasible:
        raise StageOneInfeasible(f"stage one infeasible: condition value {value.raw}")
    mu = t_join(mu_term_families(inst).values())
    if mu.is_zero:
        raise InvalidInstance(
            "stage-one objective is unbounded below; the instance is degenerate"
        )
    return mu


def stage1_solution_check(
    inst: ProblemInstance,
    mu: TropValue,
    u: TropMatrix,
    v: TropMatrix,
    slack: float = FEASIBILITY_SLACK,
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
    """Products of the combined lag conjugates with both projects' lags."""
    d1conj = mat_add(_conj_or_zero(inst.B), _conj_or_zero(inst.D))
    c1 = scalar_mul(t_inv(mu), inst.C)
    return DerivedMatrices(
        D1conj=d1conj,
        C1=c1,
        P=mat_mul(inst.A, d1conj),
        Q=mat_mul(c1, d1conj),
        R=mat_mul(d1conj, inst.A),
        S=mat_mul(d1conj, c1),
    )


def _stage2_stars(dm: DerivedMatrices, m: int, n: int) -> tuple[TropMatrix, TropMatrix]:
    # Star of the smaller of Q and S by closure; the other via the identity
    # S* = I + D1~ Q* C1 (and symmetrically), which keeps the cubic cost on
    # the smaller order.
    if m <= n:
        q_star = kleene_star(dm.Q)
        s_star = mat_add(
            TropMatrix.identity(n), mat_mul(mat_mul(dm.D1conj, q_star), dm.C1)
        )
    else:
        s_star = kleene_star(dm.S)
        q_star = mat_add(
            TropMatrix.identity(m), mat_mul(mat_mul(dm.C1, s_star), dm.D1conj)
        )
    return q_star, s_star


def check_stage2_feasibility(
    dm: DerivedMatrices, inst: ProblemInstance
) -> tuple[bool, TropValue]:
    """Existence condition value for stage two and its verdict."""
    core = dm.Q if inst.m <= inst.n else dm.S  # equal trace functions
    tr = trace_function(core)
    if tr.raw > FEASIBILITY_SLACK:
        return False, tr
    q_star, s_star = _stage2_stars(dm, inst.m, inst.n)
    hc = conjugate(inst.h)
    rc = conjugate(inst.r)
    due_term = _scalar(
        mat_mul(mat_mul(mat_add(mat_mul(hc, dm.D1conj), rc), q_star), inst.q)
    )
    start_term = _scalar(
        mat_mul(mat_mul(mat_add(mat_mul(rc, dm.C1), hc), s_star), inst.g)
    )
    value = t_join([tr, due_term, start_term])
    return value.raw <= FEASIBILITY_SLACK, value


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
    the best elementary-cycle ratio, which is the cycle mean of Q* P.  When
    m > n the same holds for S* R, which keeps the order at min(m, n).

    Requires a passing stage-two condition (``check_stage2_feasibility``):
    the star of Q (or S) raises StarDiverges on a positive cycle.
    """
    hc = conjugate(inst.h)
    rc = conjugate(inst.r)
    k_max = min(inst.m, inst.n)

    if inst.m <= inst.n:
        cycle = spectral_radius(mat_mul(kleene_star(dm.Q), dm.P))
    else:
        cycle = spectral_radius(mat_mul(kleene_star(dm.S), dm.R))

    # worker_release and lateness_chain contract the same (R, S, g) forms.
    g_forms = form_columns(dm.R, dm.S, inst.g, k_max)
    q_forms = form_columns(dm.P, dm.Q, inst.q, k_max)
    lhs_g = mat_add(mat_mul(rc, dm.C1), hc)  # 1 x n
    lhs_q = mat_add(mat_mul(hc, dm.D1conj), rc)  # 1 x m
    lhs_a = mat_mul(rc, inst.A)  # 1 x n

    return {
        "cycle_traces": cycle,
        "worker_release": _rooted_join(mat_mul(lhs_g, g_forms), 0),
        "task_deadline": _rooted_join(mat_mul(lhs_q, q_forms), 0),
        "lateness_chain": _rooted_join(mat_mul(lhs_a, g_forms), 1),
    }


def _rooted_join(forms: TropMatrix, offset: int) -> TropValue:
    # Join of the (k + offset)-th roots of the 1 x (p+1) per-degree forms,
    # over the degrees k where k + offset >= 1.
    return t_join(
        _pow_or_zero(forms.entry(0, k), 1.0 / (k + offset))
        for k in range(1 - offset, forms.cols)
    )


def compute_eta(dm: DerivedMatrices, inst: ProblemInstance) -> TropValue:
    """Optimal stage-two maximum lateness over the stage-one optimal set."""
    feasible, value = check_stage2_feasibility(dm, inst)
    if not feasible:
        raise StageTwoInfeasible(f"stage two infeasible: condition value {value.raw}")
    eta = t_join(eta_term_families(dm, inst).values())
    if eta.is_zero:
        raise InvalidInstance(
            "stage-two objective is unbounded below; the instance is degenerate"
        )
    return eta


def solution_set(
    dm: DerivedMatrices, eta: TropValue, inst: ProblemInstance
) -> StageTwoResult:
    """Generators and parameter box describing every optimal schedule."""
    einv = t_inv(eta)
    try:
        x_generator = kleene_star(mat_add(scalar_mul(einv, dm.R), dm.S))
        y_generator = kleene_star(mat_add(scalar_mul(einv, dm.P), dm.Q))
    except StarDiverges as exc:
        raise InternalConsistency(
            f"solution-set star diverged at the computed optimum: {exc}"
        ) from exc
    hc = conjugate(inst.h)
    rc = conjugate(inst.r)
    c_eta = mat_add(scalar_mul(einv, inst.A), dm.C1)  # m x n
    u_upper = conjugate(mat_mul(mat_add(hc, mat_mul(rc, c_eta)), x_generator))
    v_upper = conjugate(mat_mul(mat_add(mat_mul(hc, dm.D1conj), rc), y_generator))
    if not _vec_leq(inst.g, u_upper) or not _vec_leq(inst.q, v_upper):
        raise InternalConsistency(
            "empty parameter box despite feasible stage-two conditions"
        )
    return StageTwoResult(
        feasible=True,
        eta=eta,
        x_generator=x_generator,
        y_generator=y_generator,
        u_lower=inst.g,
        u_upper=u_upper,
        v_lower=inst.q,
        v_upper=v_upper,
        derived=dm,
    )


def materialize(
    result: StageTwoResult,
    u: TropMatrix,
    v: TropMatrix,
    inst: ProblemInstance,
) -> ScheduleSolution:
    """Schedule for a concrete parameter choice inside the box."""
    if not result.feasible:
        raise StageTwoInfeasible("cannot materialise from an infeasible result")
    if not _vec_leq(result.u_lower, u) or not _vec_leq(u, result.u_upper):
        raise ParameterOutOfBox("u lies outside the parameter box")
    if not _vec_leq(result.v_lower, v) or not _vec_leq(v, result.v_upper):
        raise ParameterOutOfBox("v lies outside the parameter box")
    dm = result.derived
    einv = t_inv(result.eta)
    c_eta = mat_add(scalar_mul(einv, inst.A), dm.C1)
    x = mat_mul(result.x_generator, mat_add(u, mat_mul(dm.D1conj, v)))
    y = mat_mul(result.y_generator, mat_add(mat_mul(c_eta, u), v))
    if not is_regular(x) or not is_regular(y):
        raise ParameterOutOfBox(
            "parameters produce a schedule with undefined components"
        )
    objective = _scalar(mat_mul(conjugate(y), mat_mul(inst.A, x)))
    return ScheduleSolution(x=x, y=y, objective=objective)


def stage2_solution_check(
    inst: ProblemInstance,
    mu: TropValue,
    x: TropMatrix,
    y: TropMatrix,
    slack: float = FEASIBILITY_SLACK,
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
    Deduplication by the materialised schedule leaves at most m + n + 1
    distinct points.
    """
    if not result.feasible:
        raise StageTwoInfeasible("no extreme points for an infeasible result")
    n = result.u_lower.rows
    m = result.v_lower.rows
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    u0 = result.u_lower.raw[:, 0].copy()
    v0 = result.v_lower.raw[:, 0].copy()
    candidates.append((u0, v0))
    for j in range(n):
        u = u0.copy()
        u[j] = result.u_upper.raw[j, 0]
        candidates.append((u, v0))
    for i in range(m):
        v = v0.copy()
        v[i] = result.v_upper.raw[i, 0]
        candidates.append((u0, v))
    points: list[ScheduleSolution] = []
    for u_arr, v_arr in candidates:
        u = TropMatrix._wrap(u_arr.reshape(-1, 1).copy())
        v = TropMatrix._wrap(v_arr.reshape(-1, 1).copy())
        try:
            sol = materialize(result, u, v, inst)
        except ParameterOutOfBox:
            continue  # zero-element lower bounds may not define a schedule
        if not any(
            sol.x.allclose(p.x) and sol.y.allclose(p.y) for p in points
        ):
            points.append(sol)
    return points


# -- pipeline -----------------------------------------------------------------


def solve(inst: ProblemInstance) -> SolveReport:
    """Run the full pipeline, stopping at the first failing condition."""
    notes: list[str] = []
    s1_feasible, s1_value = check_stage1_feasibility(inst)
    if abs(s1_value.raw) <= MARGINAL_BAND:
        notes.append("stage-one condition value is within the marginal band")
    if not s1_feasible:
        return SolveReport(
            instance=inst,
            stage1=StageOneResult(False, None, s1_value),
            stage1_terms=None,
            stage2_value=None,
            stage2=None,
            stage2_terms=None,
            notes=notes,
        )
    terms1 = mu_term_families(inst)
    mu = t_join(terms1.values())
    if mu.is_zero:
        raise InvalidInstance(
            "stage-one objective is unbounded below; the instance is degenerate"
        )
    stage1 = StageOneResult(True, mu, s1_value)

    dm = derive_matrices(inst, mu)
    if not bool(np.isfinite(dm.D1conj.raw).any(axis=1).all()):
        notes.append(
            "some worker has no finite due-date-start lag in either project; "
            "the corresponding chain terms join as the zero element"
        )
    s2_feasible, s2_value = check_stage2_feasibility(dm, inst)
    if abs(s2_value.raw) <= MARGINAL_BAND:
        notes.append("stage-two condition value is within the marginal band")
    if not s2_feasible:
        return SolveReport(
            instance=inst,
            stage1=stage1,
            stage1_terms=terms1,
            stage2_value=s2_value,
            stage2=StageTwoResult(
                False, None, None, None, None, None, None, None, dm
            ),
            stage2_terms=None,
            notes=notes,
        )
    terms2 = eta_term_families(dm, inst)
    eta = t_join(terms2.values())
    if eta.is_zero:
        raise InvalidInstance(
            "stage-two objective is unbounded below; the instance is degenerate"
        )
    result = solution_set(dm, eta, inst)
    extreme = extreme_points(result, inst)
    return SolveReport(
        instance=inst,
        stage1=stage1,
        stage1_terms=terms1,
        stage2_value=s2_value,
        stage2=result,
        stage2_terms=terms2,
        extreme=extreme,
        notes=notes,
    )
