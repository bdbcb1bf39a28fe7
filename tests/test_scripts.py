"""The example scripts run end to end from a source checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropsched.io_cli import run_cli

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _run_script(name: str, *args: str) -> str:
    done = _script(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_worked_example():
    out = _run_script("run_worked_example.py")
    assert "mu = -1.0" in out and "eta = 2.0" in out
    report = json.loads(out[out.index("full report:") + len("full report:") :])
    assert report["status"] == "optimal"


def test_make_instance_then_solve(tmp_path, capsys):
    path = tmp_path / "instance.json"
    out = _run_script("make_instance.py", str(path), "-m", "3", "-n", "4", "--seed", "2")
    assert out == f"wrote 3x4 instance to {path}\n"
    assert run_cli(["solve", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "optimal"


@pytest.mark.parametrize(
    "flag, value, low",
    [("-m", "0", 1), ("-m", "-2", 1), ("-n", "0", 1), ("--seed", "-1", 0)],
)
def test_make_instance_rejects_bad_sizes(tmp_path, flag, value, low):
    # A usage error from argparse (exit 2), not a NumPy traceback, and no file.
    path = tmp_path / "instance.json"
    done = _script("make_instance.py", str(path), flag, value)
    assert done.returncode == 2
    assert done.stdout == ""
    assert f"argument {flag}: must be an integer >= {low}, got {value}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not path.exists()


_COUNTED = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """A function docstring."""
    y = """a string that is
not a docstring"""
    return (x +
            1)


class K:
    """A class docstring."""

    value = 1
'''


def test_count_code_lines(tmp_path):
    # Code lines of _COUNTED: import, def, the two of y's string, the two of
    # the return, class and value.
    (tmp_path / "a.py").write_text(_COUNTED)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = _run_script("count_code_lines.py", str(tmp_path))
    assert out == f"     8 {tmp_path / 'a.py'}\n     1 {tmp_path / 'b.py'}\n     9 total\n"
    out = _run_script("count_code_lines.py", str(tmp_path / "b.py"))
    assert out == f"     1 {tmp_path / 'b.py'}\n     1 total\n"
