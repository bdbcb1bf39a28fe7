"""Byte-exact CLI reports for every fixture and subcommand.

Each case runs ``run_cli`` on one ``fixtures/*.json`` file and compares
stdout, stderr and the exit code with the recorded copy under
``tests/golden/``.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from tropsched.io_cli import run_cli

_ROOT = Path(__file__).resolve().parent.parent
_FIXTURE_DIR = _ROOT / "fixtures"
_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_META = _GOLDEN_DIR / "meta.json"
_README = _ROOT / "README.md"

# Subcommand -> extra arguments after the instance path.
COMMANDS = {
    "solve": [],
    "stage1": [],
    "verify": [],
    "extreme": [],
    "sample": ["--count", "5", "--seed", "7"],
}

CASES = [
    (fixture.stem, command)
    for fixture in sorted(_FIXTURE_DIR.glob("*.json"))
    for command in COMMANDS
]


def _case_id(stem: str, command: str) -> str:
    return f"{stem}.{command}"


def capture(stem: str, command: str) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one CLI run."""
    argv = [command, str(_FIXTURE_DIR / f"{stem}.json"), *COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "stem,command", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_report_matches_golden(stem, command):
    case = _case_id(stem, command)
    meta = json.loads(_META.read_text())[case]
    stdout, stderr, code = capture(stem, command)
    assert stdout == (_GOLDEN_DIR / f"{case}.stdout").read_text()
    assert stderr == meta["stderr"]
    assert code == meta["exit_code"]


def test_every_case_is_recorded():
    meta = json.loads(_META.read_text())
    assert sorted(meta) == sorted(_case_id(*case) for case in CASES)


def _report_words(value) -> set[str]:
    """Every key and string value in a report document."""
    if isinstance(value, dict):
        return set(value).union(*map(_report_words, value.values()))
    if isinstance(value, list):
        return set().union(*map(_report_words, value))
    return {value} if isinstance(value, str) else set()


def test_readme_report_fields_exist():
    # Every plain identifier the README's "Report files" section puts in
    # backticks must be a name a report really writes (or a subcommand, or
    # null), so the section cannot drift from the report format again.
    text = _README.read_text()
    section = text.split("\n## Report files\n", 1)[1].split("\n## ", 1)[0]
    names = {
        span
        for span in re.findall(r"`([^`]+)`", section)
        if re.fullmatch(r"[A-Za-z_]\w*", span)
    }
    known = set(COMMANDS) | {"null"}
    for path in _GOLDEN_DIR.glob("*.stdout"):
        known |= _report_words(json.loads(path.read_text()))
    assert names and sorted(names - known) == []


def record() -> None:
    """Overwrite the golden copies with the current outputs."""
    _GOLDEN_DIR.mkdir(exist_ok=True)
    meta = {}
    for stem, command in CASES:
        case = _case_id(stem, command)
        stdout, stderr, code = capture(stem, command)
        (_GOLDEN_DIR / f"{case}.stdout").write_text(stdout)
        meta[case] = {"exit_code": code, "stderr": stderr}
    _META.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(meta)} cases in {_GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    record()
