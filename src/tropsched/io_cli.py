"""Instance files, report files and the command-line front end.

Instances and reports are JSON documents.  A matrix entry is a number or
``null``; null encodes the zero element (an absent lag / no constraint)
and survives a round trip unambiguously.  NaN, infinities and numbers
beyond the float range are rejected on input.  Reports are emitted with
sorted keys and repr-exact floats, so identical inputs (and seeds) produce
byte-identical files.

Reports and instance files share one writer, ``dumps_report``.  For every
JSON document (objects keyed by strings) its text is exactly that of
``json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) +
"\n"``.  With an indent set, json runs its pure-Python encoder, so the
writer encodes each list compactly with json's C encoder and lays the
text out itself when the list is a row of scalars or a matrix of such
rows; only dicts and other lists are walked in Python.

Exit codes: 0 solved feasible, 2 infeasible, 3 invalid input or usage
error, 4 internal consistency failure, 5 oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .errors import (
    GridTooLarge,
    InternalConsistency,
    InvalidInstance,
    ParseError,
    TropicalError,
)
from .linalg import TropMatrix
from .oracle import grid_search_stage1, grid_search_stage2
from .scheduler import (
    MARGINAL_BAND,
    ProblemInstance,
    ScheduleSolution,
    SolveReport,
    materialize,
    solve,
    solve_stage1,
)
from .semiring import TropValue

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID_INPUT = 3
EXIT_INTERNAL = 4
EXIT_DISAGREEMENT = 5

_NEG_INF = float("-inf")

_INSTANCE_MATRIX_FIELDS = ("A", "B", "C", "D")
_INSTANCE_VECTOR_FIELDS = ("g", "h", "q", "r")


# -- instance parsing ----------------------------------------------------------


def _reject_constant(token: str):
    raise ParseError(f"non-finite literal {token!r} is not allowed")


_PLAIN_ENTRY_TYPES = frozenset({int, float, type(None)})


def _check_entries(values: list, where) -> None:
    # where(j) names entry j, and is only called to word the error.  A row
    # of plain ints, floats and nulls passes in one test; any other row is
    # checked entry by entry.
    if not set(map(type, values)) <= _PLAIN_ENTRY_TYPES:
        for j, x in enumerate(values):
            if x is not None and (isinstance(x, bool) or not isinstance(x, (int, float))):
                raise ParseError(f"{where(j)}: entry must be a number or null, got {x!r}")


def _entry_array(rows: list[list], where) -> np.ndarray:
    # Checked rows as a float array with -inf for null; where(i, j) names
    # entry (i, j).  NumPy reads null as NaN.  json reads a literal beyond
    # the float range as an infinity, or as an int too large to convert, so
    # unless every entry but the nulls is finite, the entries are walked one
    # by one and the first that is not a finite float is rejected by name.
    try:
        data = np.array(rows, dtype=np.float64)
    except OverflowError:
        data = None
    nulls = sum(row.count(None) for row in rows)
    if data is None or np.count_nonzero(np.isfinite(data)) + nulls != data.size:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                try:
                    bad = x is not None and not math.isfinite(x)
                except OverflowError:
                    bad = True
                if bad:
                    raise ParseError(f"{where(i, j)}: entry is not a finite float")
    data[np.isnan(data)] = _NEG_INF
    return data


def _parse_matrix(doc: dict, name: str, rows: int, cols: int) -> TropMatrix:
    value = doc.get(name)
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"field {name!r}: expected {rows} rows")

    def where(i: int, j: int) -> str:
        return f"field {name!r}, row {i}, column {j}"

    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"field {name!r}, row {i}: expected {cols} entries")
        _check_entries(row, functools.partial(where, i))
    return TropMatrix(_entry_array(value, where))


def _parse_vector(doc: dict, name: str, size: int) -> TropMatrix:
    value = doc.get(name)
    if not isinstance(value, list) or len(value) != size:
        raise ParseError(f"field {name!r}: expected a list of {size} numbers")

    def where(_: int, i: int) -> str:
        return f"field {name!r}, index {i}"

    _check_entries(value, functools.partial(where, 0))
    return TropMatrix(_entry_array([value], where).T)


def instance_from_dict(doc: dict) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    for key in ("m", "n"):
        if type(doc.get(key)) is not int or doc[key] < 1:  # bool is an int subclass
            raise ParseError(f"field {key!r}: expected a positive integer")
    m, n = doc["m"], doc["n"]
    mats = {name: _parse_matrix(doc, name, m, n) for name in _INSTANCE_MATRIX_FIELDS}
    vecs = {
        name: _parse_vector(doc, name, n if name in ("g", "h") else m)
        for name in _INSTANCE_VECTOR_FIELDS
    }
    return ProblemInstance(m=m, n=n, **mats, **vecs)


def parse_instance(path: str) -> ProblemInstance:
    """Load and validate an instance file."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, or an int past json's digit limit
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return instance_from_dict(doc)


def instance_to_dict(inst: ProblemInstance) -> dict:
    doc: dict[str, Any] = {"m": inst.m, "n": inst.n}
    for name in _INSTANCE_MATRIX_FIELDS:
        doc[name] = getattr(inst, name).to_rows()
    for name in _INSTANCE_VECTOR_FIELDS:
        doc[name] = _vector_to_list(getattr(inst, name))
    return doc


def write_instance(inst: ProblemInstance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_report(instance_to_dict(inst)))


# -- report serialization --------------------------------------------------------


def _value_to_json(v: TropValue | None) -> float | None:
    if v is None or v.is_zero:
        return None
    return v.value


def _vector_to_list(v: TropMatrix) -> list[float | None]:
    column = v.raw[:, 0]
    values = column.tolist()
    if (column == _NEG_INF).any():
        values = [None if x == _NEG_INF else x for x in values]
    return values


def _solution_to_dict(sol: ScheduleSolution) -> dict:
    return {
        "x": _vector_to_list(sol.x),
        "y": _vector_to_list(sol.y),
        "objective": _value_to_json(sol.objective),
    }


def report_to_dict(
    report: SolveReport,
    verification: dict | None = None,
    samples: list[dict] | None = None,
    seed: int | None = None,
) -> dict:
    s1 = report.stage1
    doc: dict[str, Any] = {
        "status": report.status,
        "stage1": {
            "feasible": s1.feasible,
            "condition_value": _value_to_json(s1.feasibility_value),
            "mu": _value_to_json(s1.mu),
            "marginal": abs(s1.feasibility_value.raw) <= MARGINAL_BAND,
        },
        "notes": list(report.notes),
    }
    if report.stage1_terms is not None:
        doc["stage1"]["term_families"] = {
            k: _value_to_json(v) for k, v in report.stage1_terms.items()
        }
    if report.stage2_value is not None:
        s2 = report.stage2
        stage2_doc: dict[str, Any] = {
            "feasible": s2 is not None and s2.feasible,
            "condition_value": _value_to_json(report.stage2_value),
            "eta": _value_to_json(s2.eta if s2 is not None else None),
            "marginal": abs(report.stage2_value.raw) <= MARGINAL_BAND,
        }
        if report.stage2_terms is not None:
            stage2_doc["term_families"] = {
                k: _value_to_json(v) for k, v in report.stage2_terms.items()
            }
            dominant = max(
                report.stage2_terms.items(), key=lambda kv: kv[1].raw
            )
            stage2_doc["dominant_term_family"] = dominant[0]
        doc["stage2"] = stage2_doc
        if s2 is not None and s2.feasible:
            doc["solution_set"] = {
                "u_box": {
                    "lower": _vector_to_list(s2.u_lower),
                    "upper": _vector_to_list(s2.u_upper),
                },
                "v_box": {
                    "lower": _vector_to_list(s2.v_lower),
                    "upper": _vector_to_list(s2.v_upper),
                },
                "generators": {
                    "x": s2.x_generator.to_rows(),
                    "y": s2.y_generator.to_rows(),
                },
            }
            doc["extreme_points"] = [_solution_to_dict(p) for p in report.extreme]
    if verification is not None:
        doc["verification"] = verification
    if samples is not None:
        doc["samples"] = samples
    if seed is not None:
        doc["seed"] = seed
    return doc


# Compact and C-coded (json uses its C encoder only when indent is None).
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _row(body: str, newline: str) -> str:
    # The compact scalars "a,b,c" as an indent=1 list closed at newline.
    inner = newline + " "
    return "[" + inner + body.replace(",", "," + inner) + newline + "]"


def _layout(value: Any, newline: str, out: list[str]) -> None:
    # Append the indent=1 text of value; newline is "\n" and the indent of
    # the line that closes value.
    inner = newline + " "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _layout(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        # A list that opens with an object is walked at once rather than
        # encoded twice.  In compact text with no string or object in it,
        # every comma and bracket is structural.
        if not isinstance(value[0], dict):
            text = _COMPACT.encode(value)
            if '"' not in text and "{" not in text:
                if text.find("[", 1) < 0:  # a row of scalars
                    out.append(_row(text[1:-1], newline))
                    return
                rows = text[2:-2].split("],[")
                if (
                    text.startswith("[[")
                    and text.endswith("]]")
                    and "[]" not in text
                    and text.count("[") == len(rows) + 1
                ):  # a matrix of non-empty scalar rows
                    laid = ("," + inner).join([_row(row, inner) for row in rows])
                    out.append("[" + inner + laid + newline + "]")
                    return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _layout(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_COMPACT.encode(value))


def dumps_report(doc: dict) -> str:
    """The text of json.dumps(doc, sort_keys=True, separators=(",", ": "),
    indent=1) plus a newline, with per-entry work done in json's C encoder."""
    out: list[str] = []
    _layout(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def load_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def report_to_text(doc: dict) -> str:
    lines = [f"status: {doc['status']}"]
    s1 = doc["stage1"]
    lines.append(
        f"stage1: feasible={s1['feasible']} condition={s1['condition_value']} mu={s1['mu']}"
    )
    if "stage2" in doc:
        s2 = doc["stage2"]
        lines.append(
            f"stage2: feasible={s2['feasible']} condition={s2['condition_value']} eta={s2['eta']}"
        )
        if "dominant_term_family" in s2:
            lines.append(f"stage2 dominant term family: {s2['dominant_term_family']}")
    if "solution_set" in doc:
        ss = doc["solution_set"]
        lines.append(f"u box: {ss['u_box']['lower']} .. {ss['u_box']['upper']}")
        lines.append(f"v box: {ss['v_box']['lower']} .. {ss['v_box']['upper']}")
        for i, pt in enumerate(doc.get("extreme_points", [])):
            lines.append(
                f"extreme[{i}]: x={pt['x']} y={pt['y']} objective={pt['objective']}"
            )
    if "verification" in doc:
        ver = doc["verification"]
        lines.append(
            f"verification: agreement={ver['agreement']} oracle_best={ver['oracle_best']}"
        )
    for note in doc.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# -- subcommand implementations ---------------------------------------------------


def _emit(doc: dict, args) -> None:
    text = dumps_report(doc) if args.format == "json" else report_to_text(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(report: SolveReport, doc: dict, args) -> int:
    _emit(doc, args)
    if report.status not in ("optimal", "stage1_solved"):
        value = (
            report.stage1.feasibility_value
            if not report.stage1.feasible
            else report.stage2_value
        )
        print(f"infeasible: condition value {value.raw}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_solve(args) -> int:
    report = solve(parse_instance(args.instance))
    return _finish(report, report_to_dict(report), args)


def _cmd_stage1(args) -> int:
    report = solve_stage1(parse_instance(args.instance))
    return _finish(report, report_to_dict(report), args)


def _cmd_verify(args) -> int:
    inst = parse_instance(args.instance)
    report = solve(inst)
    try:
        verification = _oracle_verification(inst, report, args.tolerance)
    except GridTooLarge as exc:
        # The solve report still stands; only the cross-check is missing.
        print(f"oracle skipped: {exc}", file=sys.stderr)
        verification = {
            "oracle_run": False,
            "oracle_best": {"stage1": None, "stage2": None},
            "agreement": None,
        }
    doc = report_to_dict(report, verification=verification)
    _emit(doc, args)
    if verification["agreement"] is False:
        print("oracle disagreement", file=sys.stderr)
        return EXIT_DISAGREEMENT
    if report.status != "optimal":
        return EXIT_INFEASIBLE
    return EXIT_OK


def _oracle_verification(
    inst: ProblemInstance, report: SolveReport, tol: float
) -> dict:
    oracle1 = grid_search_stage1(inst)
    agreement = oracle1.found == report.stage1.feasible
    oracle_best: dict[str, float | None] = {
        "stage1": None if oracle1.best is None else oracle1.best.value
    }
    if oracle1.found and report.stage1.feasible:
        agreement &= abs(oracle1.best.value - report.stage1.mu.value) <= tol
    oracle_best["stage2"] = None
    if report.stage1.feasible:
        oracle2 = grid_search_stage2(inst, report.stage1.mu)
        stage2_feasible = report.status == "optimal"
        agreement &= oracle2.found == stage2_feasible
        if oracle2.found:
            oracle_best["stage2"] = oracle2.best.value
            if stage2_feasible:
                agreement &= abs(oracle2.best.value - report.stage2.eta.value) <= tol
    return {
        "oracle_run": True,
        "oracle_best": oracle_best,
        "agreement": bool(agreement),
    }


def _cmd_sample(args) -> int:
    inst = parse_instance(args.instance)
    report = solve(inst)
    if report.status != "optimal":
        return _finish(report, report_to_dict(report, seed=args.seed), args)
    rng = np.random.default_rng(args.seed)
    s2 = report.stage2
    samples = []
    for _ in range(args.count):
        u = _draw(rng, s2.u_lower.raw[:, 0], s2.u_upper.raw[:, 0])
        v = _draw(rng, s2.v_lower.raw[:, 0], s2.v_upper.raw[:, 0])
        sol = materialize(s2, TropMatrix.column(u), TropMatrix.column(v), inst)
        entry = _solution_to_dict(sol)
        entry["u"] = u.tolist()
        entry["v"] = v.tolist()
        samples.append(entry)
    doc = report_to_dict(report, samples=samples, seed=args.seed)
    return _finish(report, doc, args)


# Parameters with a zero-element lower bound are sampled from a window of
# this width below the upper bound.
_OPEN_BOX_WINDOW = 20.0


def _draw(rng: np.random.Generator, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    lo = np.where(np.isfinite(lower), lower, upper - _OPEN_BOX_WINDOW)
    width = np.maximum(upper - lo, 0.0)  # bounds can cross by rounding noise
    return lo + rng.uniform(0.0, 1.0, size=lo.shape) * width


# -- entry point ------------------------------------------------------------------


def _non_negative(convert):
    # An argparse type for a finite value >= 0: a negative --seed fails in
    # np.random.default_rng, a negative --count draws nothing, and a NaN or
    # negative --tolerance reads every oracle comparison as a disagreement.
    def non_negative(text: str):
        value = convert(text)
        if not 0 <= value < float("inf"):
            raise ValueError(text)
        return value

    return non_negative


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="tropsched",
        description="Two-stage minimax lateness scheduling over max-plus algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": ("run the full two-stage pipeline", _cmd_solve),
        "stage1": ("solve the first stage only", _cmd_stage1),
        "verify": ("solve and cross-check against the grid oracle", _cmd_verify),
        "extreme": ("solve and list extreme optimal schedules", _cmd_solve),
        "sample": ("solve and materialise random optimal schedules", _cmd_sample),
    }
    for name, (help_text, func) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name == "verify":
            p.add_argument(
                "--tolerance",
                type=_non_negative(float),
                default=1e-4,
                help="oracle agreement tolerance",
            )
        if name == "sample":
            p.add_argument("--count", type=_non_negative(int), default=10)
            p.add_argument("--seed", type=_non_negative(int), default=0)
        p.set_defaults(func=func)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments, run a subcommand, and map errors to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help
            raise
        # argparse exits 2 on a usage error, which would read as "infeasible".
        return EXIT_INVALID_INPUT
    try:
        return args.func(args)
    except (ParseError, InvalidInstance) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InternalConsistency as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TropicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_cli())
