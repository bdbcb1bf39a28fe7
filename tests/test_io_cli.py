import json
from unittest.mock import patch

import numpy as np
import pytest
from conftest import FIXTURES, NEG_INF, with_open_lower_bounds
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropsched as ts
from tropsched import io_cli
from tropsched.errors import InvalidInstance, ParseError
from tropsched.io_cli import (
    _ArrayRows,
    _PointRows,
    _solution_to_dict,
    _vector_to_list,
    dumps_report,
    instance_from_dict,
    instance_to_dict,
    load_report,
    parse_instance,
    report_to_dict,
    report_to_text,
    run_cli,
    write_instance,
)
from tropsched.instances import (
    random_feasible_instance,
    random_instance,
    random_scale_instance,
    worked_example,
)
from tropsched.linalg import TropMatrix
from tropsched.scheduler import ScheduleSolution
from tropsched.semiring import TropValue


def test_parse_worked_fixture():
    inst = parse_instance(FIXTURES["worked"])
    assert inst.m == 1 and inst.n == 1
    assert inst.A.entry(0, 0).value == 4
    assert inst == worked_example() or instance_to_dict(inst) == instance_to_dict(worked_example())


def test_parse_diagnostics():
    doc = instance_to_dict(worked_example())
    bad = dict(doc, A=[[4, 5]])
    with pytest.raises(ParseError, match="'A'"):
        instance_from_dict(bad)
    bad = dict(doc, g=[1, 2])
    with pytest.raises(ParseError, match="'g'"):
        instance_from_dict(bad)
    bad = dict(doc, h=[None])
    with pytest.raises(InvalidInstance, match="h must be regular"):
        instance_from_dict(bad)
    bad = dict(doc, B=[["x"]])
    with pytest.raises(ParseError, match="row 0, column 0"):
        instance_from_dict(bad)
    bad = dict(doc, C=[[True]])
    with pytest.raises(
        ParseError,
        match=r"^field 'C', row 0, column 0: entry must be a number or null, got True$",
    ):
        instance_from_dict(bad)
    bad = dict(doc, q=["5"])
    with pytest.raises(
        ParseError, match=r"^field 'q', index 0: entry must be a number or null, got '5'$"
    ):
        instance_from_dict(bad)
    # json reads 1e400 as inf and -1e400 as -inf, which must not pass as the
    # zero element; an int past the float range does not convert at all.
    for field, value, where in (
        ("A", [[float("inf")]], "field 'A', row 0, column 0"),
        ("D", [[-(10**400)]], "field 'D', row 0, column 0"),
        ("g", [float("-inf")], "field 'g', index 0"),
        ("h", [10**400], "field 'h', index 0"),
        ("C", [[float("nan")]], "field 'C', row 0, column 0"),
    ):
        with pytest.raises(ParseError, match=rf"^{where}: entry is not a finite float$"):
            instance_from_dict(dict(doc, **{field: value}))
    with pytest.raises(
        ParseError, match=r"^field 'A', row 0, column 2: entry is not a finite float$"
    ):
        instance_from_dict(dict(doc, n=3, A=[[None, 1, float("-inf")]]))
    for key in ("m", "n"):
        # bool is an int subclass; a size of true must not pass as 1.
        with pytest.raises(ParseError, match=rf"^field '{key}': expected a positive integer$"):
            instance_from_dict(dict(doc, **{key: True}))
    with pytest.raises(ParseError):
        instance_from_dict([1, 2, 3])


class _Int(int):
    pass


class _Float(float):
    pass


@pytest.mark.parametrize("entry", [np.float64(4.5), _Int(4), _Float(4.5)])
def test_parse_accepts_number_subclasses(entry):
    doc = instance_to_dict(worked_example())
    inst = instance_from_dict(dict(doc, A=[[entry]], g=[entry]))
    assert inst.A.raw[0, 0] == entry and inst.g.raw[0, 0] == entry


@pytest.mark.parametrize(
    "field, row, message",
    [
        ("B", [False], "field 'B', row 0, column 0: entry must be a number or null, got False"),
        ("C", ["4"], "field 'C', row 0, column 0: entry must be a number or null, got '4'"),
        ("D", [[4]], "field 'D', row 0, column 0: entry must be a number or null, got [4]"),
        ("h", [True], "field 'h', index 0: entry must be a number or null, got True"),
        ("r", [[8]], "field 'r', index 0: entry must be a number or null, got [8]"),
    ],
)
def test_parse_rejects_non_numbers(field, row, message):
    doc = instance_to_dict(worked_example())
    value = [row] if field in "ABCD" else row
    with pytest.raises(ParseError) as exc_info:
        instance_from_dict(dict(doc, **{field: value}))
    assert str(exc_info.value) == message


def test_parse_reports_first_bad_entry_of_mixed_row():
    doc = dict(
        instance_to_dict(worked_example()),
        n=4,
        A=[[1, None, np.float64(2.0), "x"]],
    )
    with pytest.raises(ParseError) as exc_info:
        instance_from_dict(doc)
    assert str(exc_info.value) == (
        "field 'A', row 0, column 3: entry must be a number or null, got 'x'"
    )


def _with(doc, field, row, col, value):
    # A copy of doc with entry (row, col) of a matrix field, or entry col of
    # a vector field (row None), set to value; a value of None at col None
    # drops the row's last entry.
    doc = json.loads(json.dumps(doc))
    target = doc[field] if row is None else doc[field][row]
    if col is None:
        target.pop()
    else:
        target[col] = value
    return doc


@pytest.mark.parametrize(
    "edits, message",
    [
        ([("A", 3, None, None)], "field 'A', row 3: expected 7 entries"),
        (
            [("B", 2, 5, True)],
            "field 'B', row 2, column 5: entry must be a number or null, got True",
        ),
        (
            [("C", 1, 1, None), ("C", 4, 1, float("nan"))],
            "field 'C', row 4, column 1: entry is not a finite float",
        ),
        ([("D", 4, 6, 10**400)], "field 'D', row 4, column 6: entry is not a finite float"),
        (
            [("A", 3, 2, 1e301)],
            "field 'A', row 3, column 2: entry exceeds 1e+300 in magnitude",
        ),
        ([("q", None, 3, float("nan"))], "field 'q', index 3: entry is not a finite float"),
        ([("g", None, 6, -(10**400))], "field 'g', index 6: entry is not a finite float"),
        (
            [("r", None, 2, False)],
            "field 'r', index 2: entry must be a number or null, got False",
        ),
        # The first fault in row order, whichever check finds it.
        (
            [("B", 1, 2, "x"), ("B", 3, None, None)],
            "field 'B', row 1, column 2: entry must be a number or null, got 'x'",
        ),
        ([("B", 1, None, None), ("B", 3, 2, "x")], "field 'B', row 1: expected 7 entries"),
        (
            [("D", 1, 2, 10**400), ("D", 3, 1, True)],
            "field 'D', row 3, column 1: entry must be a number or null, got True",
        ),
    ],
)
def test_parse_reports_faults_past_row_0(edits, message):
    # Faults after valid rows get the message of the per-row walk, which
    # names the first of them.
    doc = instance_to_dict(random_feasible_instance(np.random.default_rng(5), 5, 7))
    for edit in edits:
        doc = _with(doc, *edit)
    with pytest.raises(ParseError) as exc_info:
        instance_from_dict(doc)
    assert str(exc_info.value) == message


def _old_rows(data):
    # The per-entry conversion that to_rows replaces.
    return [[None if x == NEG_INF else x for x in row] for row in data.tolist()]


@pytest.mark.parametrize(
    "data",
    [
        np.array([[1.0, 2.5], [-3.0, 0.0]]),
        np.full((2, 3), NEG_INF),
        np.array([[1.0, NEG_INF, 2.0], [4.0, 5.0, 6.0], [NEG_INF, NEG_INF, 0.5]]),
        np.array([[-0.0, NEG_INF], [0.0, -0.0]]),
        np.array([[1.0 / 3.0], [NEG_INF], [-0.0]]),
    ],
)
def test_row_conversion_matches_per_entry(data):
    mat = TropMatrix(data)
    # Compared as text, since -0.0 == 0.0.
    assert repr(mat.to_rows()) == repr(_old_rows(data))
    for j in range(data.shape[1]):
        column = _vector_to_list(TropMatrix(data[:, j : j + 1]))
        assert repr(column) == repr([row[0] for row in _old_rows(data[:, j : j + 1])])


def test_parse_rejects_non_finite(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"m": 1, "n": 1, "A": [[Infinity]], "B": [[3]], "C": [[1]], "D": [[2]], "g": [0], "h": [10], "q": [5], "r": [8]}')
    with pytest.raises(ParseError):
        parse_instance(str(path))
    with pytest.raises(ParseError):
        parse_instance(str(tmp_path / "missing.json"))


def test_instance_round_trip(tmp_path):
    from tropsched.io_cli import write_instance

    inst = parse_instance(FIXTURES["team_a"])
    path = tmp_path / "copy.json"
    write_instance(inst, str(path))
    again = parse_instance(str(path))
    assert instance_to_dict(again) == instance_to_dict(inst)


def test_report_round_trip(tmp_path):
    report = ts.solve(worked_example())
    doc = report_to_dict(report)
    text = dumps_report(doc)
    path = tmp_path / "report.json"
    path.write_text(text)
    assert load_report(str(path)) == doc
    # byte-identical re-serialization
    assert dumps_report(load_report(str(path))) == text


def test_report_round_trip_fractional(tmp_path):
    # Optima with non-representable thirds must survive serialization at
    # full precision.
    doc_in = {
        "m": 3,
        "n": 3,
        "A": [[-3.0, -4.0, None], [-4.0, 3.0, 3.0], [0.0, 4.0, None]],
        "B": [[None, -1.0, 0.0], [-2.0, None, -2.0], [0.0, 1.0, 3.0]],
        "C": [[None, -2.0, 2.0], [-4.0, -1.0, 0.0], [3.0, None, None]],
        "D": [[-3.0, None, 0.0], [0.0, -2.0, -2.0], [2.0, -2.0, None]],
        "g": [1.0, 1.0, 1.0],
        "h": [6.0, 7.0, 8.0],
        "q": [0.0, 2.0, 0.0],
        "r": [4.0, 9.0, 8.0],
    }
    report = ts.solve(instance_from_dict(doc_in))
    assert report.stage1.mu.value == pytest.approx(11.0 / 3.0, abs=1e-12)
    doc = report_to_dict(report)
    path = tmp_path / "report.json"
    path.write_text(dumps_report(doc))
    loaded = load_report(str(path))
    assert loaded == doc
    assert loaded["stage1"]["mu"] == report.stage1.mu.value  # exact, not rounded


def test_report_contents_worked():
    report = ts.solve(worked_example())
    doc = report_to_dict(report)
    assert doc["status"] == "optimal"
    assert doc["stage1"]["feasible"] is True
    assert doc["stage1"]["condition_value"] == -3.0
    assert doc["stage1"]["mu"] == -1.0
    assert doc["stage2"]["eta"] == 2.0
    assert doc["stage2"]["condition_value"] == 0.0
    assert doc["stage2"]["marginal"] is True
    assert doc["stage2"]["dominant_term_family"] == "cycle_traces"
    assert doc["solution_set"]["u_box"] == {"lower": [0.0], "upper": [6.0]}
    assert doc["solution_set"]["v_box"] == {"lower": [5.0], "upper": [8.0]}
    objectives = {pt["objective"] for pt in doc["extreme_points"]}
    assert objectives == {2.0}
    text = report_to_text(doc)
    assert "status: optimal" in text and "u box" in text


def test_cli_solve_exit_codes(tmp_path, capsys):
    assert run_cli(["solve", FIXTURES["worked"]]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["stage1"]["mu"] == -1.0 and doc["stage2"]["eta"] == 2.0

    assert run_cli(["solve", FIXTURES["infeasible"]]) == 2
    captured = capsys.readouterr()
    assert "condition value 1.0" in captured.err

    assert run_cli(["solve", FIXTURES["stage2_infeasible"]]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage1"]["mu"] == -1.0
    assert doc["stage2"]["feasible"] is False
    assert doc["stage2"]["condition_value"] == 1.0

    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1}')
    assert run_cli(["solve", str(bad)]) == 3
    capsys.readouterr()

    bad.write_text(json.dumps(dict(instance_to_dict(worked_example()), m=True)))
    assert run_cli(["solve", str(bad)]) == 3
    assert capsys.readouterr().err == "invalid input: field 'm': expected a positive integer\n"

    # Numbers past the float range: json reads 1e400 as inf and -1e400 as
    # -inf (the zero element's encoding), and keeps a 400-digit int exact.
    text = json.dumps(instance_to_dict(worked_example()))
    for field, literal, where in (
        ("A", "1e400", "field 'A', row 0, column 0"),
        ("g", "-1e400", "field 'g', index 0"),
        ("h", "9" * 400, "field 'h', index 0"),
    ):
        doc = json.loads(text)
        doc[field] = [[0.5]] if field == "A" else [0.5]
        bad.write_text(json.dumps(doc).replace("0.5", literal))
        assert run_cli(["solve", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {where}: entry is not a finite float\n"

    # Past json's own limits: an int of more than 4300 digits, and bytes
    # that are not UTF-8 text.
    bad.write_text(text.replace("[4.0]", "[" + "9" * 5000 + "]", 1))
    assert run_cli(["solve", str(bad)]) == 3
    assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err
    bad.write_bytes(b"\xff" + text.encode())
    assert run_cli(["solve", str(bad)]) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err


def test_entries_beyond_bound_are_rejected(tmp_path, capsys):
    # Finite entries near the float limit overflowed inside the solver:
    # A = [[1e308]] crashed `solve` with an inf payload, and C = [[-1e308]]
    # overflowed a max-plus sum.  Magnitudes above 1e300 are invalid input;
    # 1e300 itself parses and solves.
    doc = instance_to_dict(worked_example())
    path = tmp_path / "instance.json"
    above = float(np.nextafter(1e300, np.inf))
    for field, value, where in (
        ("A", [[1e308]], "field 'A', row 0, column 0"),
        ("C", [[-1e308]], "field 'C', row 0, column 0"),
        ("D", [[-above]], "field 'D', row 0, column 0"),
        ("q", [-(10**301)], "field 'q', index 0"),
    ):
        path.write_text(json.dumps(dict(doc, **{field: value})))
        for command in ("solve", "verify"):
            assert run_cli([command, str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"invalid input: {where}: entry exceeds 1e+300 in magnitude\n"
    for field, value in (("A", [[1e300]]), ("C", [[-1e300]]), ("g", [-(10**300)])):
        path.write_text(json.dumps(dict(doc, **{field: value})))
        inst = parse_instance(str(path))
        assert abs(getattr(inst, field).raw[0, 0]) == 1e300
        for command in ("solve", "verify"):
            assert run_cli([command, str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: dict(doc, A={"0": [0, 0, 0]}), "field 'A': expected 2 rows"),
        (lambda doc: dict(doc, D=doc["D"][:1]), "field 'D': expected 2 rows"),
        (lambda doc: dict(doc, B=doc["B"] * 2), "field 'B': expected 2 rows"),
        (lambda doc: [doc], "{path}: top-level value must be an object"),
    ],
    ids=["matrix-not-a-list", "matrix-short", "matrix-long", "top-level-list"],
)
def test_cli_rejects_malformed_documents(tmp_path, capsys, edit, message):
    with open(FIXTURES["team_a"]) as fh:
        doc = json.load(fh)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(doc)))
    for command in ("solve", "verify"):
        assert run_cli([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message.format(path=path)}\n"


def test_cli_usage_errors(capsys):
    # Exit code 2 means infeasible, so usage errors must not use argparse's 2.
    for argv in (
        ["solve"],
        ["solve", FIXTURES["worked"], "--count", "3"],
        ["solve", FIXTURES["worked"], "--tolerance", "1e-3"],
        ["sample", FIXTURES["team_a"], "--seed", "-1"],
        ["sample", FIXTURES["infeasible"], "--seed", "-1"],
        ["sample", FIXTURES["team_a"], "--count", "-3"],
        ["sample", FIXTURES["team_a"], "--count", "x"],
        ["verify", FIXTURES["worked"], "--tolerance", "nan"],
        ["verify", FIXTURES["worked"], "--tolerance", "-1"],
        ["verify", FIXTURES["worked"], "--tolerance", "inf"],
    ):
        assert run_cli(argv) == 3
        assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc_info:
        run_cli(["solve", "--help"])
    assert exc_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
    assert run_cli(["verify", FIXTURES["worked"], "--tolerance", "1e-3"]) == 0
    assert run_cli(["verify", FIXTURES["worked"], "--tolerance", "0"]) == 0
    capsys.readouterr()
    assert run_cli(["sample", FIXTURES["team_a"], "--count", "0", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == []


def test_cli_stage1(capsys):
    assert run_cli(["stage1", FIXTURES["worked"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "stage1_solved"
    assert doc["stage1"]["mu"] == -1.0
    assert "stage2" not in doc
    assert run_cli(["stage1", FIXTURES["infeasible"]]) == 2
    capsys.readouterr()


def test_cli_output_file_and_text(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert run_cli(["solve", FIXTURES["team_a"], "--output", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "optimal"
    assert run_cli(["solve", FIXTURES["team_a"], "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("status: optimal")


def test_cli_verify_worked(capsys):
    assert run_cli(["verify", FIXTURES["worked"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    ver = doc["verification"]
    assert ver["oracle_run"] is True
    assert ver["agreement"] is True
    assert abs(ver["oracle_best"]["stage1"] - (-1.0)) <= 1e-6
    assert abs(ver["oracle_best"]["stage2"] - 2.0) <= 1e-6


def test_cli_verify_text(capsys):
    # verify's text report is solve's with the verification line before
    # the notes.
    assert run_cli(["verify", FIXTURES["worked"]]) == 0
    ver = json.loads(capsys.readouterr().out)["verification"]
    assert run_cli(["solve", FIXTURES["worked"], "--format", "text"]) == 0
    solved = capsys.readouterr().out.splitlines()
    assert run_cli(["verify", FIXTURES["worked"], "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ver["agreement"] is True and solved[-1].startswith("note: ")
    line = f"verification: agreement=True oracle_best={ver['oracle_best']}"
    assert lines == solved[:-1] + [line, solved[-1]]


@pytest.mark.parametrize("m,n", [(6, 6), (10, 100)])
def test_cli_verify_without_oracle_on_wide_boxes(tmp_path, capsys, m, n):
    # The grid oracle refuses these boxes; verify still writes the solve
    # report, marks the oracle as not run, and exits from the solve status.
    src = tmp_path / "instance.json"
    write_instance(random_scale_instance(np.random.default_rng(1), m, n), str(src))
    assert run_cli(["solve", str(src)]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert run_cli(["verify", str(src)]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc.pop("verification") == {
        "oracle_run": False,
        "oracle_best": {"stage1": None, "stage2": None},
        "agreement": None,
    }
    assert doc == solved
    assert captured.err.startswith("oracle skipped: ")
    assert captured.err.count("\n") == 1


def test_cli_verify_infeasible_agrees(capsys):
    # Infeasible both ways: verdicts agree, exit reflects infeasibility.
    assert run_cli(["verify", FIXTURES["infeasible"]]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["agreement"] is True


def test_cli_extreme(capsys):
    assert run_cli(["extreme", FIXTURES["worked"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    pts = {(tuple(p["x"]), tuple(p["y"])) for p in doc["extreme_points"]}
    assert pts == {((3.0,), (5.0,)), ((6.0,), (8.0,))}


def test_cli_internal_consistency_exit_code(monkeypatch, capsys):
    from tropsched import io_cli
    from tropsched.errors import InternalConsistency

    def boom(_inst):
        raise InternalConsistency("forced for the exit-code contract")

    monkeypatch.setattr(io_cli, "solve", boom)
    assert run_cli(["solve", FIXTURES["worked"]]) == 4
    assert "internal consistency" in capsys.readouterr().err


def test_cli_verify_disagreement_exit_code(monkeypatch, capsys):
    from tropsched import io_cli
    from tropsched.oracle import GridSearchResult
    from tropsched.semiring import TropValue

    def wrong_oracle(_inst, _spec=None):
        return GridSearchResult(True, TropValue(123.0), None, None)

    monkeypatch.setattr(io_cli, "grid_search_stage1", wrong_oracle)
    # Exit 5 outranks exit 2: on an infeasible instance only its line shows.
    for fixture in ("worked", "infeasible"):
        assert run_cli(["verify", FIXTURES[fixture]]) == 5
        captured = capsys.readouterr()
        assert captured.err == "oracle disagreement\n"
        doc = json.loads(captured.out)
        assert doc["verification"]["agreement"] is False


def _assert_exit_2_line(captured) -> None:
    # An exit 2 ends stderr with exactly one line naming the failing
    # stage's condition value as the report writes it.
    doc = json.loads(captured.out)
    stage = doc["stage2"] if doc["stage1"]["feasible"] else doc["stage1"]
    line = f"infeasible: condition value {stage['condition_value']}\n"
    assert captured.err.endswith(line)
    assert captured.err.count("infeasible: ") == 1


@pytest.mark.parametrize("fixture", ["infeasible", "stage2_infeasible"])
@pytest.mark.parametrize("command", ["solve", "stage1", "verify", "extreme", "sample"])
def test_cli_exit_2_prints_condition_value(capsys, command, fixture):
    code = run_cli([command, FIXTURES[fixture]])
    captured = capsys.readouterr()
    if code == 2:
        _assert_exit_2_line(captured)
    else:  # stage1 on an instance whose stage one is feasible
        assert (code, captured.err) == (0, "")
        assert (command, fixture) == ("stage1", "stage2_infeasible")


def test_cli_verify_exit_2_without_oracle(tmp_path, capsys):
    # The box is too wide for the grid oracle and stage two is infeasible:
    # the skipped-oracle line comes first, then the exit-2 line.
    doc = instance_to_dict(random_scale_instance(np.random.default_rng(1), 6, 6))
    doc["B"] = [[None if x is None else x - 30 for x in row] for row in doc["B"]]
    src = tmp_path / "instance.json"
    write_instance(instance_from_dict(doc), str(src))
    assert run_cli(["verify", str(src)]) == 2
    captured = capsys.readouterr()
    skipped, infeasible = captured.err.splitlines()
    assert skipped.startswith("oracle skipped: ")
    assert infeasible == "infeasible: condition value 180.0"
    _assert_exit_2_line(captured)


def test_cli_sample_deterministic(capsys):
    assert run_cli(["sample", FIXTURES["team_b"], "--count", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["sample", FIXTURES["team_b"], "--count", "5", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical for identical input and seed
    doc = json.loads(first)
    assert doc["seed"] == 7 and len(doc["samples"]) == 5
    eta = doc["stage2"]["eta"]
    for sample in doc["samples"]:
        assert abs(sample["objective"] - eta) <= 1e-9
    assert run_cli(["sample", FIXTURES["team_b"], "--count", "5", "--seed", "8"]) == 0
    third = capsys.readouterr().out
    assert third != first


# -- the report writer against json's own indent=1 encoder ---------------------


def _stdlib_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e22, 1 / 3,
                   float("inf"), float("-inf"), float("nan")]
_numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
)
_texts = st.text(st.sampled_from(list(',[]{}"\\: \n\tae\u00e9\u20ac\U0001f600')) | st.characters())
_scalars = _numbers | _texts
_rows = st.lists(_numbers, max_size=5)
_leaves = st.one_of(
    _scalars,
    _rows,
    st.lists(_rows, max_size=4),  # ragged and empty rows
    st.lists(st.lists(_rows, max_size=3), max_size=3),  # nested three deep
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_writer_matches_stdlib(doc):
    assert dumps_report(doc) == _stdlib_text(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        [[]],
        [[], [1]],
        [[1], []],
        [[1], 2, [[3]]],
        [[1, 2], [3]],
        [[[1]], [[2, 3]]],
        [1, [2]],
        [[1], [2, [3]]],
        [{"a": 1}, 2],
        [2, {"a": 1}],
        [["a"], [1]],
        ["a,b", "[c]", "{d}", '"'],
        {"b": [1.5, None, True], "a": {"d": [], "c": {}}},
        {"k": [[1.0, None], [-0.0, 1e22]]},
        (1, (2, 3)),
        "text",
        -0.0,
        None,
    ],
)
def test_writer_matches_stdlib_examples(doc):
    assert dumps_report(doc) == _stdlib_text(doc)


# Entries a TropMatrix can hold: -inf is the zero element, written null.
_matrix_entries = st.one_of(
    st.sampled_from([x for x in _SPECIAL_FLOATS if x == x and x != float("inf")]),
    st.integers(-3000, 3000).map(lambda k: k / 3),
    st.floats(allow_nan=False, allow_infinity=False),
)
_DISTINCT = np.random.default_rng(0).uniform(-1e9, 1e9, 120 * 120).tolist()


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7)) | st.just((120, 120)),
    values=st.lists(_matrix_entries, min_size=1, max_size=49),
    block=st.sampled_from([None, "x", "y"]),
)
@example(shape=(2, 3), values=[0.0, -0.0, 1.0], block=None)
@example(shape=(9, 9), values=[-0.0, 0.0], block="y")
@example(shape=(3, 2), values=[float("-inf")], block=None)
@example(shape=(120, 120), values=[float("-inf")], block="x")
@example(shape=(120, 120), values=_DISTINCT, block="y")
def test_array_rows_match_stdlib(shape, values, block):
    # values, repeated in order, fill the matrix; block places it as a
    # diagonal block of a larger array, which is how x_generator (the
    # leading block) and y_generator (the trailing one) are stored.
    data = np.resize(np.array(values), shape)
    if block is not None:
        rows, cols = shape
        star = np.full((rows + 3, cols + 3), 2.5)
        view = star[:rows, :cols] if block == "x" else star[3:, 3:]
        view[...] = data
        data = view
    matrix = TropMatrix._wrap(data)
    expected = _stdlib_text({"k": matrix.to_rows()})
    # Both the per-entry path and the value table, whatever the size.
    for threshold in (0, io_cli._TABLE_MIN_ENTRIES, data.size + 1):
        with patch.object(io_cli, "_TABLE_MIN_ENTRIES", threshold):
            assert dumps_report({"k": _ArrayRows.of(matrix)}) == expected


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 40), st.integers(1, 120), st.integers(1, 120)),
    values=st.lists(_matrix_entries, min_size=1, max_size=49),
)
@example(shape=(3, 2, 1), values=[0.0, -0.0, 1.0])
@example(shape=(36, 100, 10), values=[-0.0, 0.0])
@example(shape=(40, 120, 120), values=[1 / 3])
@example(shape=(1, 1, 1), values=[float("-inf")])
@example(shape=(30, 60, 60), values=_DISTINCT[:49])
def test_point_rows_match_stdlib(shape, values):
    # values, repeated in order, fill k schedules' [objective; x; y]; the
    # zero element is allowed anywhere and written null.
    k, n, m = shape
    data = np.resize(np.array(values), (k, 1 + n + m))
    points = [
        ScheduleSolution(
            x=TropMatrix._wrap(row[1 : 1 + n, None]),
            y=TropMatrix._wrap(row[1 + n :, None]),
            objective=TropValue.from_raw(float(row[0])),
        )
        for row in data
    ]
    plain = [_solution_to_dict(p) for p in points]
    rows = _PointRows.of(points)
    assert rows == plain
    expected = _stdlib_text({"k": plain})
    # Both the per-entry walk and the value table, whatever the size.
    for threshold in (0, io_cli._TABLE_MIN_ENTRIES, data.size + 1):
        with patch.object(io_cli, "_TABLE_MIN_ENTRIES", threshold):
            assert dumps_report({"k": rows}) == expected


@pytest.mark.parametrize("seed, count", [(42, 0), (144, 0), (2, 1), (23, 1)])
def test_reports_with_few_extreme_points_match_stdlib(seed, count):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    inst = random_feasible_instance(rng, m, n, density=0.5)
    report = ts.solve(with_open_lower_bounds(inst, rng))
    assert report.status == "optimal" and len(report.extreme) == count
    doc = report_to_dict(report)
    plain = json.loads(json.dumps(doc))
    assert doc == plain and len(doc["extreme_points"]) == count
    for threshold in (0, io_cli._TABLE_MIN_ENTRIES):
        with patch.object(io_cli, "_TABLE_MIN_ENTRIES", threshold):
            assert dumps_report(doc) == _stdlib_text(plain)
    assert report_to_text(doc) == report_to_text(plain)


def test_writer_rejects_what_stdlib_rejects():
    for doc in ({(1, 2): 3}, {"a": object()}, [1, object()]):
        with pytest.raises(TypeError):
            _stdlib_text(doc)
        with pytest.raises(TypeError):
            dumps_report(doc)


def _thirds(inst):
    doc = instance_to_dict(inst)
    for name in ("A", "B", "C", "D"):
        doc[name] = [[None if x is None else x / 3 for x in row] for row in doc[name]]
    for name in ("g", "h", "q", "r"):
        doc[name] = [x / 3 for x in doc[name]]
    return instance_from_dict(doc)


def test_cli_reports_match_stdlib_writer(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    cases = [
        (random_feasible_instance if (m + n) % 2 else random_instance)(rng, m, n)
        for m in range(1, 7)
        for n in range(1, 7)
    ]
    cases += [
        random_scale_instance(rng, m, n)
        for m, n in ((1, 60), (60, 1), (10, 100), (100, 10), (40, 40))
    ]
    src, out = tmp_path / "instance.json", tmp_path / "report.json"
    for inst in cases:
        for data in (inst, _thirds(inst)):
            write_instance(data, str(src))
            text = src.read_text()
            assert text == json.dumps(instance_to_dict(data), sort_keys=True, indent=1) + "\n"
            # verify on the wide random_scale_instance shapes writes its
            # report with oracle_run false (GridTooLarge).
            commands = [["solve"], ["stage1"], ["sample", "--count", "3"], ["verify"]]
            for command in commands:
                out.unlink(missing_ok=True)
                code = run_cli([command[0], str(src), "--output", str(out), *command[1:]])
                assert code in (0, 2, 5), (command, data.m, data.n)
                text = out.read_text()
                assert text == _stdlib_text(json.loads(text))
    capsys.readouterr()
