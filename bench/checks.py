"""Output checks, run on each report after the timed region.

A request fails when its exit code is unexpected, its status contradicts
the exit code, an extreme schedule violates a constraint or misses the
reported optimum, the parameter box is empty, or (for ``verify``) the
grid oracle disagrees.  The objective is recomputed here in plain float
arithmetic rather than read from the report.
"""

from __future__ import annotations

import json

import numpy as np

from tropsched.linalg import TropMatrix
from tropsched.scheduler import ProblemInstance, stage2_solution_check
from tropsched.semiring import TropValue

# The solver's own feasibility slack and the README's test tolerance.
SLACK = 1e-9

_INFEASIBLE = ("stage1_infeasible", "stage2_infeasible")


def _raw(values: list) -> np.ndarray:
    return np.array([-np.inf if v is None else v for v in values], dtype=float)


def _objective(inst: ProblemInstance, x: np.ndarray, y: np.ndarray) -> float:
    """max over finite A[i, j] of A[i, j] + x[j] - y[i]."""
    a = inst.A.raw
    return float(np.where(np.isfinite(a), a + x[None, :] - y[:, None], -np.inf).max())


def check_report(
    inst: ProblemInstance, code: int, out_path: str, ok_codes: frozenset[int], verify: bool
) -> list[str]:
    """Reasons this request failed; empty when every check passes."""
    if code not in ok_codes:
        return [f"exit code {code}"]
    with open(out_path) as fh:
        doc = json.load(fh)
    status = doc["status"]
    errors = []
    if (code == 0) != (status == "optimal") or (code == 2 and status not in _INFEASIBLE):
        errors.append(f"status {status} with exit code {code}")
    if verify and not doc["verification"]["agreement"]:
        errors.append("oracle disagreement")
    if status != "optimal":
        return errors

    mu = TropValue(doc["stage1"]["mu"])
    eta = doc["stage2"]["eta"]
    boxes = doc["solution_set"]
    for box in ("u_box", "v_box"):
        if not (_raw(boxes[box]["lower"]) <= _raw(boxes[box]["upper"]) + SLACK).all():
            errors.append(f"{box} lower exceeds upper")
    points = doc["extreme_points"]
    if not 1 <= len(points) <= inst.m + inst.n + 1:
        errors.append(f"{len(points)} extreme points for {inst.m}x{inst.n}")
    for k, pt in enumerate(points):
        x, y = _raw(pt["x"]), _raw(pt["y"])
        if not stage2_solution_check(inst, mu, TropMatrix.column(x), TropMatrix.column(y)):
            errors.append(f"extreme point {k} violates a constraint")
        if abs(_objective(inst, x, y) - eta) > SLACK or abs(pt["objective"] - eta) > SLACK:
            errors.append(f"extreme point {k} objective is not eta")
    return errors
