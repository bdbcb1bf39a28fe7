"""Shared helpers: random tropical matrices and reference implementations."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tropsched.blockstar import SkewBlock
from tropsched.linalg import TropMatrix
from tropsched.semiring import TropValue, t_join, t_pow

NEG_INF = float("-inf")

_FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURES = {
    "worked": str(_FIXTURE_DIR / "worked_1x1.json"),
    "infeasible": str(_FIXTURE_DIR / "infeasible_1x1.json"),
    "stage2_infeasible": str(_FIXTURE_DIR / "stage2_infeasible_1x1.json"),
    "team_a": str(_FIXTURE_DIR / "team_2x3_a.json"),
    "team_b": str(_FIXTURE_DIR / "team_2x3_b.json"),
}


def rand_raw(rng, rows, cols, density=0.85, lo=-5, hi=5):
    """Integer-valued float matrix with zero-element holes."""
    vals = rng.integers(lo, hi + 1, size=(rows, cols)).astype(float)
    mask = rng.random((rows, cols)) < density
    return np.where(mask, vals, NEG_INF)


def rand_mat(rng, rows, cols, **kwargs) -> TropMatrix:
    return TropMatrix(rand_raw(rng, rows, cols, **kwargs))


def zero_cycle_skew(rng, p, q, density=0.8):
    """Integer skew blocks whose cycles are all non-positive, some exactly 0.

    B[i, j] = a[i] - b[j] - s and C[j, i] = b[j] - a[i] - s' with integer
    potentials a, b and slacks s, s' in {0, 1, 2}, half of them 0: every
    cycle weighs minus the sum of its slacks.  Holes are zero entries.
    """
    a = rng.integers(-4, 5, size=p).astype(float)
    b = rng.integers(-4, 5, size=q).astype(float)

    def block(diff, rows, cols):
        slack = rng.integers(1, 3, (rows, cols)) * (rng.random((rows, cols)) < 0.5)
        keep = rng.random((rows, cols)) < density
        return TropMatrix(np.where(keep, diff - slack, NEG_INF))

    return SkewBlock(
        block(a[:, None] - b[None, :], p, q), block(b[:, None] - a[None, :], q, p)
    )


def reference_mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Triple-loop max-plus product, independent of the vectorised kernel."""
    out = np.full((a.rows, b.cols), NEG_INF)
    wa, wb = a.raw, b.raw
    for i in range(a.rows):
        for j in range(b.cols):
            best = NEG_INF
            for k in range(a.cols):
                if np.isfinite(wa[i, k]) and np.isfinite(wb[k, j]):
                    best = max(best, wa[i, k] + wb[k, j])
            out[i, j] = best
    return TropMatrix(out)


def triangle_form_columns(p_mat, q_mat, rhs, p):
    """Reference: the vector triangle filled cell by cell.

    e[k, l] = P e[k-1, l] + Q e[k, l-1] with e[k, 0] = P^k rhs and
    e[0, l] = (I + Q + ... + Q^l) rhs, one matrix-vector step per term;
    column k of the result is e[k, p-k].
    """
    pw, qw = p_mat.raw, q_mat.raw
    d = pw.shape[0]
    out = np.empty((d, p + 1))
    # row[l] holds e[k, l] for the current k, l = 0..p-k.
    row = np.empty((p + 1, d))
    cur = rhs.raw[:, 0]
    row[0] = cur
    for l in range(1, p + 1):
        cur = (qw + cur).max(axis=1)
        row[l] = np.maximum(row[l - 1], cur)
    out[:, 0] = row[p]
    for k in range(1, p + 1):
        row[0] = (pw + row[0]).max(axis=1)
        for l in range(1, p - k + 1):
            row[l] = np.maximum((pw + row[l]).max(axis=1), (qw + row[l - 1]).max(axis=1))
        out[:, k] = row[p - k]
    return out


def triangle_form_terms(lhs, p_mat, q_mat, rhs, p) -> dict[int, TropValue]:
    """Per-degree forms lhs . T[k, p-k] . rhs, k = 0..p, off the cell loop."""
    forms = (lhs.raw[0][:, None] + triangle_form_columns(p_mat, q_mat, rhs, p)).max(axis=0)
    return {k: TropValue.from_raw(float(x)) for k, x in enumerate(forms)}


def rooted(terms: dict[int, TropValue], offset: int) -> TropValue:
    """Join of the (k + offset)-th roots of per-degree terms, k + offset >= 1."""
    return t_join(
        t_pow(v, 1.0 / (k + offset))
        for k, v in terms.items()
        if k + offset >= 1 and not v.is_zero
    )


def enumerate_cycle_means(a: TropMatrix) -> float:
    """Brute-force maximum cycle mean over all simple cycles."""
    import itertools

    w = a.raw
    n = a.rows
    best = NEG_INF
    for length in range(1, n + 1):
        for nodes in itertools.permutations(range(n), length):
            if nodes[0] != min(nodes):
                continue  # one rotation per cycle is enough
            total = 0.0
            ok = True
            for u, v in zip(nodes, nodes[1:] + (nodes[0],)):
                if not np.isfinite(w[u, v]):
                    ok = False
                    break
                total += w[u, v]
            if ok:
                best = max(best, total / length)
    return best


def assert_close(value: TropValue, expected: float | None, tol: float = 1e-9):
    if expected is None:
        assert value.is_zero
    else:
        assert not value.is_zero
        assert abs(value.value - expected) <= tol


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
