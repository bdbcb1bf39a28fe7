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
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionMismatch, GridTooLarge, StarDiverges
from .linalg import TropMatrix, mat_add, mat_mul, mat_pow, trace, trace_function
from .scheduler import ProblemInstance
from .semiring import TropValue

_NEG_INF = float("-inf")

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
# Grid points evaluated per batch.
_GRID_CHUNK = 200_000


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


def _iter_grid(lo: np.ndarray, hi: np.ndarray, step: float):
    axes = [_axis_points(float(a), float(b), step) for a, b in zip(lo, hi)]
    dims = len(axes)
    total = int(np.prod([len(ax) for ax in axes]))
    for start in range(0, total, _GRID_CHUNK):
        stop = min(total, start + _GRID_CHUNK)
        idx = np.unravel_index(np.arange(start, stop), [len(ax) for ax in axes])
        block = np.empty((stop - start, dims))
        for d in range(dims):
            block[:, d] = axes[d][idx[d]]
        yield block


class _StageEvaluator:
    """Vectorised objective/feasibility for batches of start-time vectors."""

    def __init__(self, inst: ProblemInstance, mu: float | None):
        self.obj_lags = inst.A.raw if mu is not None else inst.C.raw
        self.m, self.n = inst.m, inst.n
        self.q = inst.q.raw[:, 0]
        self.r = inst.r.raw[:, 0]
        self.g = inst.g.raw[:, 0]
        self.h = inst.h.raw[:, 0]
        # Upper bounds on due dates: +inf marks absent lags so they drop
        # out of the minimum.
        caps = [np.where(np.isfinite(inst.D.raw), inst.D.raw, np.inf)]
        lower_sources = [inst.D.raw]
        if mu is not None:
            caps.append(np.where(np.isfinite(inst.B.raw), inst.B.raw, np.inf))
            lower_sources.append(inst.B.raw)
            self.coupled = inst.C.raw - mu  # -inf entries stay -inf
        else:
            self.coupled = None
        self.caps = caps
        # Necessary per-coordinate lower bounds on start times: every
        # finite lag must leave room for the earliest finish time q.
        lo = self.g.copy()
        for src in lower_sources:
            contrib = np.where(np.isfinite(src), self.q[:, None] - src, _NEG_INF)
            lo = np.maximum(lo, contrib.max(axis=0))
        self.start_lower = lo

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.start_lower, self.h

    def box_feasible(self) -> bool:
        if not (self.q <= self.r + _FEAS_SLACK).all():
            return False
        return bool((self.start_lower <= self.h + _FEAS_SLACK).all())

    def evaluate(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(objective, violation) for a batch of start vectors (N x n).

        The violation is how far the due-date lower bounds exceed their
        caps; zero means the point is feasible.
        """
        due_cap = np.broadcast_to(self.r, (starts.shape[0], self.m)).copy()
        for cap in self.caps:
            due_cap = np.minimum(
                due_cap, (cap[None, :, :] + starts[:, None, :]).min(axis=2)
            )
        due_low = np.broadcast_to(self.q, due_cap.shape).copy()
        if self.coupled is not None:
            due_low = np.maximum(
                due_low, (self.coupled[None, :, :] + starts[:, None, :]).max(axis=2)
            )
        violation = np.maximum(due_low - due_cap, 0.0).max(axis=1)
        finish = (self.obj_lags[None, :, :] + starts[:, None, :]).max(axis=2)
        objective = (finish - due_cap).max(axis=1)
        return objective, violation

    def due_dates(self, start: np.ndarray) -> np.ndarray:
        due = self.r.copy()
        for cap in self.caps:
            due = np.minimum(due, (cap + start[None, :]).min(axis=1))
        return due


def _refined_search(
    ev: _StageEvaluator,
) -> tuple[bool, float, np.ndarray | None, list[float]]:
    lo, hi = ev.box()
    if not ev.box_feasible() or not (lo <= hi + _FEAS_SLACK).all():
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
                best_pt = block[i].copy()
        history.append(best_score)
        win_lo = np.maximum(lo, best_pt - 2.0 * step)
        win_hi = np.minimum(hi, best_pt + 2.0 * step)
        step /= 2.0
    objective, violation = ev.evaluate(best_pt[None, :])
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
