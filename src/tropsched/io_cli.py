"""Instance files, report files and the command-line front end.

Instances and reports are JSON documents.  A matrix entry is a number or
``null``; null encodes the zero element (an absent lag / no constraint)
and survives a round trip unambiguously.  NaN, infinities, numbers
beyond the float range and finite entries of magnitude above 1e300 are
rejected on input (see _ENTRY_BOUND).  Reports are emitted with
sorted keys and repr-exact floats, so identical inputs (and seeds) produce
byte-identical files.

Reports and instance files share one writer, ``dumps_report``.  For every
JSON document (objects keyed by strings) its text is exactly that of
``json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) +
"\n"``.  With an indent set, json runs its pure-Python encoder, so the
writer lays the text out itself.  A matrix that ``instance_to_dict`` or
``report_to_dict`` built, and a report's list of extreme points, keep
their values as the rows of one array beside their items: a matrix's
rows, or a row [objective; x; y] per point.  One function gives the
words of such an array: json's C encoder over the whole array below
``_TABLE_MIN_ENTRIES`` entries, and from there up a table that turns each
distinct value into text once.  Each row is then laid out as a list or
as a point's dict.  Other rows of scalars are encoded compactly with
json's C encoder; dicts and other lists are walked in Python.

Exit codes: 0 solved feasible, 2 infeasible, 3 invalid input or usage
error, 4 internal consistency failure, 5 oracle disagreement.  Every
subcommand, verify included, prints "infeasible: condition value <v>" on
stderr when it exits 2, v being the failing stage's condition value, and
"oracle disagreement" when it exits 5.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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

# Largest accepted magnitude of a finite entry.  The solver and the oracle
# only ever add up a few entries at a time: a star path or a table walk
# sums O(m + n) lags, a cycle mean or root divides such a sum, and the
# oracle's score adds 100 times a violation of a few entries.  With every
# entry within 1e300 a sum stays finite for about 1e8 terms (the float
# limit is 1.8e308); two entries near that limit already overflow.
_ENTRY_BOUND = 1e300


def _entry_array(name: str, rows: list, cols: int, where) -> np.ndarray:
    # Field name's rows, each to be a list of cols numbers or nulls, as a
    # float array with -inf for null; where(i, j) names entry (i, j).  A
    # field of list rows of the right length and plain ints, floats and
    # nulls passes in one test over all its entries, and is converted by
    # one np.array, which reads null as NaN.  json reads a literal beyond
    # the float range as an infinity, or as an int too large to convert, so
    # unless every entry but the nulls is a float within _ENTRY_BOUND, the
    # entries are walked one by one and the first that is not is rejected
    # by name.  Any other field is walked row by row, each row's length
    # before its entries, and the first fault is rejected by name: the
    # walks run only to word an error, or to pass a list or number subclass.
    types = None
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {cols}:
        types = set(map(type, itertools.chain.from_iterable(rows)))
    if types is None or not types <= _PLAIN_ENTRY_TYPES:
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(f"field {name!r}, row {i}: expected {cols} entries")
            for j, x in enumerate(row):
                if x is not None and (isinstance(x, bool) or not isinstance(x, (int, float))):
                    raise ParseError(f"{where(i, j)}: entry must be a number or null, got {x!r}")
        types = set(map(type, itertools.chain.from_iterable(rows)))
    try:
        data = np.array(rows, dtype=np.float64)
    except OverflowError:
        data = None
    nulls = sum(row.count(None) for row in rows) if type(None) in types else 0
    if data is None or np.count_nonzero(np.abs(data) <= _ENTRY_BOUND) + nulls != data.size:
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x is None:
                    continue
                try:
                    value = float(x)
                except OverflowError:
                    value = math.inf
                if not math.isfinite(value):
                    raise ParseError(f"{where(i, j)}: entry is not a finite float")
                if abs(value) > _ENTRY_BOUND:
                    raise ParseError(
                        f"{where(i, j)}: entry exceeds {_ENTRY_BOUND:g} in magnitude"
                    )
    if nulls:
        data[np.isnan(data)] = _NEG_INF
    return data


def _parse_matrix(doc: dict, name: str, rows: int, cols: int) -> TropMatrix:
    value = doc.get(name)
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"field {name!r}: expected {rows} rows")

    def where(i: int, j: int) -> str:
        return f"field {name!r}, row {i}, column {j}"

    # The array is checked: finite or -inf, 2-D and non-empty.
    return TropMatrix._wrap(_entry_array(name, value, cols, where))


def _parse_vector(doc: dict, name: str, size: int) -> TropMatrix:
    value = doc.get(name)
    if not isinstance(value, list) or len(value) != size:
        raise ParseError(f"field {name!r}: expected a list of {size} numbers")

    def where(_: int, i: int) -> str:
        return f"field {name!r}, index {i}"

    return TropMatrix._wrap(_entry_array(name, [value], size, where).reshape(size, 1))


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
        doc[name] = _ArrayRows.of(getattr(inst, name))
    for name in _INSTANCE_VECTOR_FIELDS:
        doc[name] = _vector_to_list(getattr(inst, name))
    return doc


def write_instance(inst: ProblemInstance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_report(instance_to_dict(inst)))


# -- report serialization --------------------------------------------------------


class _ArrayRows(list):
    # A report list whose items also keep their values as the rows of one
    # 2-D array: a matrix's rows as nested lists (n None), or schedules'
    # dicts {"x", "y", "objective"}, one row [objective; x; y] each (n the
    # length of x), the order in which the writer lays out their sorted
    # keys.  None stands for the zero element.  It compares equal to the
    # plain list; the writer lays the text out from the array, so a caller
    # that edits an item edits a copy.
    __slots__ = ("array", "n")

    def __init__(self, items, array: np.ndarray, n: int | None = None):
        super().__init__(items)
        self.array, self.n = array, n

    @classmethod
    def of(cls, mat: TropMatrix) -> "_ArrayRows":
        return cls(mat.to_rows(), mat.raw)

    @classmethod
    def of_points(cls, points: list[ScheduleSolution]) -> "_ArrayRows":
        if not points:
            return cls((), np.empty((0, 1)), 0)
        n, m = points[0].x.rows, points[0].y.rows
        xy = np.concatenate([a for p in points for a in (p.x.raw, p.y.raw)])
        array = np.empty((len(points), 1 + n + m))
        array[:, 0] = [p.objective.raw for p in points]
        array[:, 1:] = xy.reshape(len(points), n + m)
        objectives = array[:, 0].tolist()
        xs, ys = array[:, 1 : 1 + n].tolist(), array[:, 1 + n :].tolist()
        if (array == _NEG_INF).any():
            objectives = _nulls(objectives)
            xs, ys = [_nulls(x) for x in xs], [_nulls(y) for y in ys]
        items = ({"x": x, "y": y, "objective": o} for x, y, o in zip(xs, ys, objectives))
        return cls(items, array, n)


def _value_to_json(v: TropValue | None) -> float | None:
    if v is None or v.is_zero:
        return None
    return v.value


def _nulls(values: list[float]) -> list[float | None]:
    return [None if x == _NEG_INF else x for x in values]


def _vector_to_list(v: TropMatrix) -> list[float | None]:
    column = v.raw[:, 0]
    values = column.tolist()
    if (column == _NEG_INF).any():
        values = _nulls(values)
    return values


def _solution_to_dict(sol: ScheduleSolution) -> dict:
    return {
        "x": _vector_to_list(sol.x),
        "y": _vector_to_list(sol.y),
        "objective": _value_to_json(sol.objective),
    }


def _stage_to_dict(
    feasible: bool,
    condition: TropValue,
    optimum_key: str,
    optimum: TropValue | None,
    terms: dict[str, TropValue] | None,
) -> dict:
    doc: dict[str, Any] = {
        "feasible": feasible,
        "condition_value": _value_to_json(condition),
        optimum_key: _value_to_json(optimum),
        "marginal": abs(condition.raw) <= MARGINAL_BAND,
    }
    if terms is not None:
        doc["term_families"] = {k: _value_to_json(v) for k, v in terms.items()}
    return doc


def report_to_dict(
    report: SolveReport,
    verification: dict | None = None,
    samples: list[dict] | None = None,
    seed: int | None = None,
) -> dict:
    s1 = report.stage1
    doc: dict[str, Any] = {
        "status": report.status,
        "stage1": _stage_to_dict(
            s1.feasible, s1.feasibility_value, "mu", s1.mu, report.stage1_terms
        ),
        "notes": list(report.notes),
    }
    if report.stage2_value is not None:
        s2 = report.stage2
        doc["stage2"] = _stage_to_dict(
            s2.feasible, report.stage2_value, "eta", s2.eta, report.stage2_terms
        )
        if report.stage2_terms is not None:
            dominant = max(report.stage2_terms.items(), key=lambda kv: kv[1].raw)
            doc["stage2"]["dominant_term_family"] = dominant[0]
        if s2.feasible:
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
                    "x": _ArrayRows.of(s2.x_generator),
                    "y": _ArrayRows.of(s2.y_generator),
                },
            }
            doc["extreme_points"] = _ArrayRows.of_points(report.extreme)
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


# Below this many entries an array's words come from json's C encoder, one
# pass over the whole array: the value table has a fixed cost, most of it
# np.unique.  Timed through _rows_text on 16 to 144 entries, matrices and
# extreme-point blocks alike, the table breaks even near 30 entries when
# the values repeat (4 distinct) and near 144 when all are distinct.
_TABLE_MIN_ENTRIES = 64


def _words(array: np.ndarray) -> list[list[str]]:
    # The json text of each entry of a non-empty 2-D array, one list per
    # row.  Small arrays are encoded compactly at once and split at "],["
    # and ",".  From _TABLE_MIN_ENTRIES up each distinct bit pattern (so
    # -0.0 and 0.0 stay apart) is turned into text once, and the words are
    # indexed back over the array.
    if array.size < _TABLE_MIN_ENTRIES:
        text = _COMPACT.encode(array.tolist()).replace("-Infinity", "null")
        return [row.split(",") for row in text[2:-2].split("],[")]
    table, index = np.unique(array.view(np.int64), return_inverse=True)
    words = np.array(
        ["null" if x == _NEG_INF else repr(x) for x in table.view(np.float64).tolist()],
        dtype=object,
    )
    return words[index.reshape(array.shape)].tolist()


def _rows_text(rows: _ArrayRows, newline: str) -> str:
    # The indent=1 text of a non-empty rows, closed at newline: each row of
    # its array as a list, or, with n set, as a schedule's dict in key
    # order, objective, x, y.
    n = rows.n
    item, key, entry = newline + " ", newline + "  ", newline + "   "
    if n is None:
        texts = ["[" + key + ("," + key).join(w) + item + "]" for w in _words(rows.array)]
    else:
        head = "{" + key + '"objective": '
        x_open, cell = "," + key + '"x": [' + entry, "," + entry
        y_open, tail = key + "]," + key + '"y": [' + entry, key + "]" + item + "}"
        texts = [
            head + w[0] + x_open + cell.join(w[1 : 1 + n]) + y_open + cell.join(w[1 + n :]) + tail
            for w in _words(rows.array)
        ]
    return "[" + item + ("," + item).join(texts) + newline + "]"


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
        if type(value) is _ArrayRows:
            out.append(_rows_text(value, newline))
            return
        # A list that opens with an object is walked at once rather than
        # encoded twice.  In compact text with no string or object in it,
        # every comma and bracket is structural.
        if not isinstance(value[0], dict):
            text = _COMPACT.encode(value)
            if '"' not in text and "{" not in text and text.find("[", 1) < 0:
                out.append(_row(text[1:-1], newline))  # a row of scalars
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
    indent=1) plus a newline.  Matrices from instance_to_dict and
    report_to_dict, and the extreme points of report_to_dict, are written
    from their arrays, large ones with each distinct value encoded once;
    other rows of scalars go through json's C encoder."""
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


def _finish(report: SolveReport, args, **sections) -> int:
    # The one exit path of every subcommand: write the report with its
    # sections (verification=, samples=, seed=), then pick the exit code
    # and print at most one stderr line for it.
    doc = report_to_dict(report, **sections)
    text = dumps_report(doc) if args.format == "json" else report_to_text(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if doc.get("verification", {}).get("agreement") is False:
        print("oracle disagreement", file=sys.stderr)
        return EXIT_DISAGREEMENT
    if report.status in ("optimal", "stage1_solved"):
        return EXIT_OK
    value = report.stage2_value if report.stage1.feasible else report.stage1.feasibility_value
    print(f"infeasible: condition value {value.raw}", file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    return _finish(solve(parse_instance(args.instance)), args)


def _cmd_stage1(args) -> int:
    return _finish(solve_stage1(parse_instance(args.instance)), args)


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
    return _finish(report, args, verification=verification)


def _oracle_verification(
    inst: ProblemInstance, report: SolveReport, tol: float
) -> dict:
    # Per stage the solver reached: the oracle's result, the solver's
    # verdict and its optimum.  The two agree when both find the stage
    # infeasible, or both find it feasible with optima within tol.
    s1 = report.stage1
    stages = {"stage1": (grid_search_stage1(inst), s1.feasible, s1.mu)}
    if s1.feasible:
        stages["stage2"] = (
            grid_search_stage2(inst, s1.mu),
            report.status == "optimal",
            report.stage2.eta,
        )
    agreement = all(
        oracle.found == feasible
        and (not feasible or abs(oracle.best.value - optimum.value) <= tol)
        for oracle, feasible, optimum in stages.values()
    )
    oracle_best = dict.fromkeys(("stage1", "stage2"))
    for stage, (oracle, _, _) in stages.items():
        if oracle.best is not None:
            oracle_best[stage] = oracle.best.value
    return {"oracle_run": True, "oracle_best": oracle_best, "agreement": agreement}


def _cmd_sample(args) -> int:
    inst = parse_instance(args.instance)
    report = solve(inst)
    samples = None
    if report.status == "optimal":
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
    return _finish(report, args, samples=samples, seed=args.seed)


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
