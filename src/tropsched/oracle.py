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

The grid is evaluated in column layout: a block of N start vectors is an
(n, N) array, and every max-plus sum broadcasts the lags, stored as
(n, rows, 1), against it and reduces over axis 0.  n is small (the oracle
is for tiny instances) and N is the long axis, so each reduction runs
over whole contiguous rows of N points, and a block costs a fixed handful
of NumPy calls however many points it holds.  The due-date caps of D
and B are merged into one matrix, which is exact because rounding is
monotone (see _StageEvaluator).  Blocks hold at most _GRID_CHUNK points,
and the search does not depend on where they are cut: points come in one
fixed order and an incumbent is only replaced by a strictly better score.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, GridTooLarge, StarDiverges
from .linalg import TropMatrix, mat_add, mat_mul, mat_pow, trace, trace_function
from .scheduler import ProblemInstance
from .semiring import TropValue

_FEAS_SLACK = 1e-9
_COMPOSITION_CAP = 6


# -- naive algebraic identities ------------------------------------------------


def naive_star(a: TropMatrix, terms: int | None = None) -> TropMatrix:
    """Kleene star as the literal truncated power sum I + A + ... + A^(r-1)."""
    tr = trace_function(a)
    if tr.raw > 1e-9:
        raise StarDiverges(f"star diverges: trace function value {tr.raw}", tr)
    r = a.rows if terms is None else terms
    out = TropMatrix.identity(a.rows)
    power = TropMatrix.identity(a.rows)
    for _ in range(r - 1):
        power = mat_mul(power, a)
        out = mat_add(out, power)
    return out


def naive_binomial(a: TropMatrix, b: TropMatrix, p: int) -> TropMatrix:
    """Literal join of (A + B)^k for k = 1..p."""
    if a.shape != b.shape or a.rows != a.cols:
        raise DimensionMismatch(
            f"square matrices of equal order required, got {a.shape} and {b.shape}"
        )
    s = mat_add(a, b)
    out = s
    power = s
    for _ in range(p - 1):
        power = mat_mul(power, s)
        out = mat_add(out, power)
    return out


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
# Grid points per block.  A block's largest temporary holds n * 2m * 4096
# floats (1 MiB at 4 x 4), and a refinement window (at most 5 points per
# axis) fits in one block up to n = 5.
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
    # two, so the running product only grows and stops once it passes the
    # limit; the product over all axes can overflow float64.
    count = 1.0
    for points in (np.floor(np.maximum(hi - lo, 0.0) / step) + 2).tolist():
        count *= points
        if count > limit:
            return True
    return False


def _iter_grid(lo: np.ndarray, hi: np.ndarray, step: float) -> Iterator[np.ndarray]:
    """The grid on the box [lo, hi] as (dims, N) blocks of column points.

    Points come in C order (the last axis varies fastest) and blocks hold
    at most _GRID_CHUNK of them.  A grid that fits in one block is built
    by broadcasting the axes; a larger one is cut into consecutive runs of
    flat indices.
    """
    axes = [_axis_points(float(a), float(b), step) for a, b in zip(lo, hi)]
    shape = tuple(len(ax) for ax in axes)
    dims, total = len(axes), math.prod(shape)
    if total <= _GRID_CHUNK:
        block = np.empty((dims, *shape))
        for d, points in enumerate(axes):
            block[d] = points.reshape((-1,) + (1,) * (dims - d - 1))
        yield block.reshape(dims, total)
        return
    for start in range(0, total, _GRID_CHUNK):
        idx = np.unravel_index(np.arange(start, min(total, start + _GRID_CHUNK)), shape)
        yield np.stack([ax[i] for ax, i in zip(axes, idx)])


class _StageEvaluator:
    """Vectorised objective/feasibility for blocks of start-time columns.

    Lags are stored as (n, rows, 1) so that a (n, N) block of start points
    broadcasts to (n, rows, N) and the max-plus sums reduce over axis 0,
    the short worker axis, with the long point axis contiguous; what is
    left are row operations on (rows, N).  The due-date caps from D and
    (in stage two) B are merged into one matrix min(D, B), +inf for absent
    lags.  That is exact: rounding is monotone, so
    min(fl(a + s), fl(b + s)) == fl(min(a, b) + s).  The objective lags and
    the coupled lags C - mu of stage two share one stacked block.
    """

    def __init__(self, inst: ProblemInstance, mu: float | None):
        self.m = inst.m
        self.q = inst.q.raw[:, 0]
        self.r = inst.r.raw[:, 0]
        self.h = inst.h.raw[:, 0]
        caps = np.where(np.isfinite(inst.D.raw), inst.D.raw, np.inf)
        if mu is None:
            lags = inst.C.raw
        else:
            caps = np.minimum(caps, np.where(np.isfinite(inst.B.raw), inst.B.raw, np.inf))
            # Objective lags A, then the coupled lags (-inf entries stay -inf).
            lags = np.vstack([inst.A.raw, inst.C.raw - mu])
        self.caps = caps.T[:, :, None]
        self.lags = lags.T[:, :, None]
        # Necessary per-coordinate lower bounds on start times: every
        # finite lag must leave room for the earliest finish time q (an
        # absent lag's +inf cap contributes -inf).
        self.start_lower = np.maximum(inst.g.raw[:, 0], (self.q[:, None] - caps).max(axis=0))

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.start_lower, self.h

    def box_feasible(self) -> bool:
        if not (self.q <= self.r + _FEAS_SLACK).all():
            return False
        return bool((self.start_lower <= self.h + _FEAS_SLACK).all())

    def _due_caps(self, starts: np.ndarray) -> np.ndarray:
        # The largest admissible due dates (m x N) for start columns (n x N).
        return np.minimum((self.caps + starts[:, None, :]).min(axis=0), self.r[:, None])

    def evaluate(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(objective, violation) for a block of start columns (n x N).

        The violation is how far the due-date lower bounds exceed their
        caps; zero means the point is feasible.
        """
        due_cap = self._due_caps(starts)
        lagged = (self.lags + starts[:, None, :]).max(axis=0)
        due_low = self.q[:, None]
        if len(lagged) > self.m:
            due_low = np.maximum(due_low, lagged[self.m :])
        violation = np.maximum(due_low - due_cap, 0.0).max(axis=0)
        objective = (lagged[: self.m] - due_cap).max(axis=0)
        return objective, violation

    def due_dates(self, start: np.ndarray) -> np.ndarray:
        return self._due_caps(start[:, None])[:, 0]


def _refined_search(
    ev: _StageEvaluator,
) -> tuple[bool, float, np.ndarray | None, list[float]]:
    lo, hi = ev.box()
    if not ev.box_feasible():
        return False, np.inf, None, []
    hi = np.maximum(hi, lo)
    if _grid_exceeds(lo, hi, _INITIAL_STEP, _MAX_EVALUATIONS):
        raise GridTooLarge(f"initial grid would exceed {_MAX_EVALUATIONS:g} evaluations")

    best_score = np.inf
    best_pt: np.ndarray | None = None
    step = _INITIAL_STEP
    history: list[float] = []
    win_lo, win_hi = lo, hi
    for _ in range(_REFINEMENT_ROUNDS + 1):
        for block in _iter_grid(win_lo, win_hi, step):
            objective, violation = ev.evaluate(block)
            score = objective + _PENALTY * violation
            i = int(score.argmin())
            if score[i] < best_score:
                best_score = float(score[i])
                best_pt = block[:, i].copy()
        history.append(best_score)
        win_lo = np.maximum(lo, best_pt - 2.0 * step)
        win_hi = np.minimum(hi, best_pt + 2.0 * step)
        step /= 2.0
    objective, violation = ev.evaluate(best_pt[:, None])
    if float(violation[0]) > max(1e-6, 8.0 * step):
        # The penalised search could not reach the constrained region: it
        # is empty (or the penalty weight is too small for this instance).
        return False, np.inf, None, history
    return True, float(objective[0]), best_pt, history


def _grid_search(ev: _StageEvaluator) -> GridSearchResult:
    found, best, pt, history = _refined_search(ev)
    if not found:
        return GridSearchResult(False, None, None, None, tuple(history))
    due = ev.due_dates(pt)
    return GridSearchResult(
        True,
        TropValue(best),
        TropMatrix.column(pt),
        TropMatrix.column(due),
        tuple(history),
    )


def grid_search_stage1(inst: ProblemInstance) -> GridSearchResult:
    """Brute-force minimum of the first project's maximum lateness."""
    return _grid_search(_StageEvaluator(inst, mu=None))


def grid_search_stage2(inst: ProblemInstance, mu: TropValue) -> GridSearchResult:
    """Brute-force minimum of the second project's maximum lateness over the
    stage-one optimal set described by the given mu."""
    return _grid_search(_StageEvaluator(inst, mu=float(mu.value)))
