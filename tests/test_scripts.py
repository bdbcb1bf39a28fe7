"""The example scripts run end to end from a source checkout."""

import json
import os
import subprocess
import sys
from pathlib import Path

from tropsched.io_cli import run_cli

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
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
