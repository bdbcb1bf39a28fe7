"""Independent brute-force verification.

Everything here recomputes results of the main code paths by definitional
means: truncated power sums instead of path closures, literal composition
enumeration instead of table recurrences, and refined grid search over the
original conventional-arithmetic constraints instead of closed forms.  The
grid code deliberately works on plain float arrays and never touches the
solver's derived quantities, so agreement between the two routes is a real
cross-check.

Both scheduling objectives are piecewise linear with slopes of at most one
per coordinate, so a grid of step s brackets the optimum within a small
multiple of s and the halving refinement converges geometrically.  For
each candidate start-time vector the best due dates are the largest
admissible ones (the objective is antitone and the due-date constraints
are per-coordinate bounds), which the evaluator applies exactly; the grid
therefore only has to cover start times.  Constraints that do not reduce
to per-coordinate bounds are scored as an exact penalty, and the search
certifies afterwards that the returned point actually satisfies them; see
the grid-search constants below.

The grid is evaluated a block at a time.  A block is the product of one
run of points per axis, and the evaluator joins the workers one at a
time, from the last one back.  Both objectives are max-plus forms (a
lateness is max_j (a_ij + x_j) - y_i and a due-date cap
min_j (d_ij + x_j)), so the join over the last workers is shared by
every point with those coordinates: each earlier worker meets it in one
broadcast max (a min for the caps), its run varying slowest, so the
inner loop runs over the contiguous points joined so far.  A block costs
a fixed handful of NumPy calls per worker however many points it holds.
The maxima and minima are exact and keep the same one of tied terms as
the per-point joins (see evaluate), so every value is bit for bit that
of the per-point sums.  The due-date caps of D and B are merged into
one matrix, which is exact because rounding is monotone (see
_StageEvaluator).  Blocks hold at most _GRID_CHUNK points, and the
search does not depend on where they are cut: points come in one fixed
order (C order) and an incumbent is only replaced by a strictly better
score.  The search keeps the incumbent's objective,
violation and due dates from the block that scored it, and certifies
the returned point by that violation.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, GridTooLarge, StarDiverges
from .linalg import TropMatrix, mat_add, mat_mul, mat_pow, powers, trace, trace_function
from .scheduler import ProblemInstance
from .semiring import TropValue

_FEAS_SLACK = 1e-9
_COMPOSITION_CAP = 6


# -- naive algebraic identities ------------------------------------------------


def naive_star(a: TropMatrix, terms: int | None = None) -> TropMatrix:
    """Kleene star as the literal truncated power sum I + A + ... + A^(r-1)."""
    tr = trace_function(a)
    if tr.raw > _FEAS_SLACK:
        raise StarDiverges(f"star diverges: trace function value {tr.raw}", tr)
    r = a.rows if terms is None else terms
    out = TropMatrix.identity(a.rows)
    power = TropMatrix.identity(a.rows)
    for _ in range(r - 1):
        power = mat_mul(power, a)
        out = mat_add(out, power)
    return out


def naive_binomial(a: TropMatrix, b: TropMatrix, p: int) -> TropMatrix:
    """Literal join of (A + B)^k for k = 1..p: the ``powers`` of A + B, summed."""
    if a.shape != b.shape or a.rows != a.cols:
        raise DimensionMismatch(
            f"square matrices of equal order required, got {a.shape} and {b.shape}"
        )
    if p < 1:
        raise ValueError("truncation order p must be >= 1")
    return reduce(mat_add, powers(mat_add(a, b), p))


def compositions_upto(parts: int, total: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers with sum at most `total`."""
    if parts == 1:
        for i in range(total + 1):
            yield (i,)
        return
    for head in range(total + 1):
        for tail in compositions_upto(parts - 1, total - head):
            yield (head,) + tail


def naive_composition_cell(
    a: TropMatrix, b: TropMatrix, k: int, l: int
) -> TropMatrix:
    """Join over i0+...+ik <= l of B^i0 (A B^i1 ... A B^ik), by enumeration."""
    if k + l > _COMPOSITION_CAP:
        raise ValueError(f"composition enumeration capped at order {_COMPOSITION_CAP}")
    out = TropMatrix.zeros(a.rows, a.cols)
    for comp in compositions_upto(k + 1, l):
        prod = mat_pow(b, comp[0])
        for idx in comp[1:]:
            prod = mat_mul(prod, mat_mul(a, mat_pow(b, idx)))
        out = mat_add(out, prod)
    return out


def naive_trace_term(p_mat: TropMatrix, q_mat: TropMatrix, k: int, l: int) -> TropValue:
    return trace(naive_composition_cell(p_mat, q_mat, k, l))


def naive_form_term(
    lhs: TropMatrix, p_mat: TropMatrix, q_mat: TropMatrix, rhs: TropMatrix, k: int, l: int
) -> TropValue:
    cell = naive_composition_cell(p_mat, q_mat, k, l)
    return mat_mul(mat_mul(lhs, cell), rhs).entry(0, 0)


# -- grid search over the original constraints ---------------------------------


# Refined grid-search policy.  The search box is the one implied by the
# instance.  Each refinement round halves the step and re-grids a window of
# two old steps around the incumbent, so with slopes of at most one the
# certified gap after the last round is proportional to the final step,
# _INITIAL_STEP / 2**_REFINEMENT_ROUNDS (2.98e-8).
_INITIAL_STEP = 0.5
_REFINEMENT_ROUNDS = 24
# An initial grid of more points than this raises GridTooLarge.
_MAX_EVALUATIONS = 1e8
# Constraints that could not be folded into the box enter the score as an
# exact penalty _PENALTY * violation.  The stage-one region is itself a box,
# so there the penalty never fires; the stage-two region may be a
# lower-dimensional slice of the box (its thin directions can sit at
# non-dyadic offsets that no halving grid hits exactly), and the penalty
# lets the refinement converge onto it from nearby grid points.  The
# returned point's violation is checked afterwards: the search only reports
# success when it is negligible, so a too-small penalty or an empty region
# shows up as `found = False`, never as a wrong value.
_PENALTY = 100.0
# Grid points per block.  A refinement window re-grids two old steps on
# each side of the incumbent at the halved step, so it has up to 9 points
# per axis, and 5 where the box clips it at the incumbent.  A 4-axis
# window of up to 9^4 = 6561 points is cut on its first axis into blocks
# of 5 x 9 x 9 x 9 and 4 x 9 x 9 x 9 points.  Joining worker j builds
# (rows + m) x P_j floats, P_j the points of the block's runs from j on:
# at 4 x 4 in stage two (rows + m = 12), 12 x (9, 81, 729, 3645) floats,
# at most 0.33 MiB, then 2m x 3645 floats (0.22 MiB) for the points' rows.
_GRID_CHUNK = 4096


class GridSearchResult(NamedTuple):
    found: bool
    best: TropValue | None
    u: TropMatrix | None
    v: TropMatrix | None
    history: tuple[float, ...] = ()


def _axis_points(lo: float, hi: float, step: float) -> np.ndarray:
    if hi <= lo:
        return np.array([lo])
    pts = np.arange(lo, hi + step * 1e-9, step)
    if pts[-1] < hi - 1e-12:
        pts = np.append(pts, hi)
    return pts


def _grid_exceeds(lo: np.ndarray, hi: np.ndarray, step: float, limit: float) -> bool:
    # Whether the grid has more than limit points.  Every axis has at least
    # two, so a product that overflows float64 to inf is still too large.
    return math.prod((np.floor(np.maximum(hi - lo, 0.0) / step) + 2).tolist()) > limit


def _iter_grid(lo: list[float], hi: list[float], step: float) -> Iterator[list[np.ndarray]]:
    """The grid on the box [lo, hi] as blocks, each a list of one run per axis.

    A block is the product of its runs, which _StageEvaluator.evaluate takes
    as is.  The trailing axes stay whole while their product fits in
    _GRID_CHUNK; the axis before them is cut into runs, once per point of
    the axes before it, which are one-point runs.  So blocks hold at most
    _GRID_CHUNK points, and blocks and the points in them come in C order
    (the last axis varies fastest).
    """
    axes = [_axis_points(a, b, step) for a, b in zip(lo, hi)]
    cut, size = len(axes) - 1, 1
    while cut and size * len(axes[cut]) <= _GRID_CHUNK:
        size *= len(axes[cut])
        cut -= 1
    width = _GRID_CHUNK // size
    for head in itertools.product(*(range(len(ax)) for ax in axes[:cut])):
        runs = [ax[i : i + 1] for ax, i in zip(axes, head)]
        for start in range(0, len(axes[cut]), width):
            yield runs + [axes[cut][start : start + width]] + axes[cut + 1 :]


class _StageEvaluator:
    """Vectorised objective/feasibility on grid blocks of start times.

    Each worker has a column of lag terms and a column of due-date cap
    terms, stacked as terms[j] of shape (rows + m, 1); evaluate joins them
    one worker at a time.  The due-date caps from D and (in stage two) B
    are merged into one matrix min(D, B), +inf for absent lags.  That is
    exact: rounding is monotone, so min(fl(a + s), fl(b + s)) ==
    fl(min(a, b) + s).  The objective lags and the coupled lags C - mu of
    stage two share the lag rows.
    """

    def __init__(self, inst: ProblemInstance, mu: float | None):
        self.m = inst.m
        self.q = inst.q.raw
        self.r = inst.r.raw
        self.h = inst.h.raw[:, 0]
        caps = np.where(np.isfinite(inst.D.raw), inst.D.raw, np.inf)
        if mu is None:
            lags = inst.C.raw
        else:
            caps = np.minimum(caps, np.where(np.isfinite(inst.B.raw), inst.B.raw, np.inf))
            # Objective lags A, then the coupled lags (-inf entries stay -inf).
            lags = np.vstack([inst.A.raw, inst.C.raw - mu])
        self.rows = len(lags)
        self.terms = np.vstack([lags, caps]).T[:, :, None]
        # Necessary per-coordinate lower bounds on start times: every
        # finite lag must leave room for the earliest finish time q (an
        # absent lag's +inf cap contributes -inf).
        self.start_lower = np.maximum(inst.g.raw[:, 0], (self.q - caps).max(axis=0))

    def evaluate(self, block: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(objective, violation, due-date caps) at the points of a block.

        block holds one run of start times per worker, and its P points are
        the product of the runs in C order.  The last worker's sums give the
        lagged maxima (rows x L) at its L points, and, met with r, the caps
        (m x L); each earlier worker's sums meet them in one broadcast max (a
        min for the caps), its run varying slowest.  The per-point joins
        take the workers in order and then r, and keep a later equal term on
        a tie (which decides the sign of a zero).  Here the join so far,
        made of the later terms, is always the second argument, which NumPy's
        maximum and minimum return on ties, so every value is that of the
        per-point joins bit for bit.  The violation is how far the due-date
        lower bounds exceed their caps; zero means the point is feasible.
        The caps (m x P) are the largest admissible due dates.
        """
        rows, m = self.rows, self.m
        sums = self.terms[-1] + block[-1]
        lagged, due_cap = sums[:rows], np.minimum(sums[rows:], self.r)
        for terms, run in zip(self.terms[-2::-1], block[-2::-1]):
            sums = (terms + run)[:, :, None]
            lagged = np.maximum(sums[:rows], lagged[:, None]).reshape(rows, -1)
            due_cap = np.minimum(sums[rows:], due_cap[:, None]).reshape(m, -1)
        if rows == m:
            objective = np.maximum.reduce(lagged - due_cap, axis=0)
            excess = np.maximum.reduce(self.q - due_cap, axis=0)
        else:
            # Stage two: the coupled rows, joined with q, are the due dates'
            # lower bounds.  Both row blocks meet the caps in one subtraction.
            coupled = lagged[m:]
            np.maximum(self.q, coupled, out=coupled)
            objective, excess = np.maximum.reduce(lagged.reshape(2, m, -1) - due_cap, axis=1)
        # max_i max(x_i, 0) as max(max_i x_i, 0): the same bits, because
        # equal positive values are equal floats and ties keep the 0.0.
        return objective, np.maximum(excess, 0.0), due_cap


def _grid_search(ev: _StageEvaluator) -> GridSearchResult:
    # The search box is [start_lower, h].  The due dates need no test of
    # their own: ProblemInstance rejects q > r.
    lo = ev.start_lower
    if not (lo <= ev.h + _FEAS_SLACK).all():
        return GridSearchResult(False, None, None, None)
    hi = np.maximum(ev.h, lo)
    if _grid_exceeds(lo, hi, _INITIAL_STEP, _MAX_EVALUATIONS):
        raise GridTooLarge(f"initial grid would exceed {_MAX_EVALUATIONS:g} evaluations")

    # The windows and the incumbent are Python floats, so a round's
    # bookkeeping is a few scalar operations per axis and the incumbent
    # keeps no block's arrays alive.  A window bound is replaced by the
    # box's only where the box is strictly tighter, so on a tie a zero bound
    # keeps its sign (np.maximum(lo, bound) also returns the bound on ties).
    lo, hi = lo.tolist(), hi.tolist()
    best_score = math.inf
    best_pt: list[float] | None = None
    step = _INITIAL_STEP
    history: list[float] = []
    win_lo, win_hi = lo, hi
    for _ in range(_REFINEMENT_ROUNDS + 1):
        for block in _iter_grid(win_lo, win_hi, step):
            objective, violation, due_cap = ev.evaluate(block)
            score = objective + _PENALTY * violation
            i = int(score.argmin())
            if score[i] < best_score:
                best_score = float(score[i])
                point = np.unravel_index(i, [len(run) for run in block])
                best_pt = [float(run[k]) for run, k in zip(block, point)]
                best_objective, best_violation = float(objective[i]), float(violation[i])
                best_due = due_cap[:, i].tolist()
        history.append(best_score)
        win_lo = [a if a > (v := x - 2.0 * step) else v for a, x in zip(lo, best_pt)]
        win_hi = [b if b < (v := x + 2.0 * step) else v for b, x in zip(hi, best_pt)]
        step /= 2.0
    if best_violation > max(1e-6, 8.0 * step):
        # The penalised search could not reach the constrained region: it
        # is empty (or the penalty weight is too small for this instance).
        return GridSearchResult(False, None, None, None, tuple(history))
    return GridSearchResult(
        True,
        TropValue(best_objective),
        TropMatrix.column(best_pt),
        TropMatrix.column(best_due),
        tuple(history),
    )


def grid_search_stage1(inst: ProblemInstance) -> GridSearchResult:
    """Brute-force minimum of the first project's maximum lateness."""
    return _grid_search(_StageEvaluator(inst, mu=None))


def grid_search_stage2(inst: ProblemInstance, mu: TropValue) -> GridSearchResult:
    """Brute-force minimum of the second project's maximum lateness over the
    stage-one optimal set described by the given mu."""
    return _grid_search(_StageEvaluator(inst, mu=float(mu.value)))
