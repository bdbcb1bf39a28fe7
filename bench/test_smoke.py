"""Smoke test of the benchmark itself: a few requests per workload.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that no request fails, that the output checks catch broken reports, that
the input digests follow the seed, that a comparison of runs on other
inputs is refused, and that the runner refuses to run without the package
source next to it.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import check_report  # noqa: E402
from compare import compare  # noqa: E402
from tropsched.instances import random_feasible_instance  # noqa: E402
from tropsched.io_cli import run_cli, write_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def _result(workload, seed, trace):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return line, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric(workload, trace):
    line, record = _result(workload, 1, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert record["failed_frac"] == 0


def _broken(doc):
    """The report rewritten three ways that each must fail a check."""
    shifted = copy.deepcopy(doc)
    pt = shifted["extreme_points"][0]
    pt["x"] = [None if v is None else v + 1.0 for v in pt["x"]]
    contradicting = copy.deepcopy(doc)
    contradicting["status"] = "stage1_infeasible"
    disagreeing = copy.deepcopy(doc)
    disagreeing["verification"]["agreement"] = False
    return {"x shifted": shifted, "status contradicts code": contradicting,
            "oracle disagreement": disagreeing}


def test_checks_catch_broken_reports(tmp_path):
    inst = random_feasible_instance(np.random.default_rng(7), 3, 3)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    write_instance(inst, str(src))
    code = run_cli(["verify", str(src), "--output", str(out)])
    ok = frozenset({0, 2})
    assert code == 0
    assert check_report(inst, code, str(out), ok, True) == []
    doc = json.loads(out.read_text())
    for what, bad in _broken(doc).items():
        out.write_text(json.dumps(bad))
        assert check_report(inst, code, str(out), ok, True), what
    assert check_report(inst, 4, str(out), ok, True), "exit code 4"


def test_input_digest_follows_seed():
    first = _result("verify_small", 1, 1)[1]["inputs"]["first_batch_sha256"]
    again = _result("verify_small", 1, 1)[1]["inputs"]["first_batch_sha256"]
    other = _result("verify_small", 2, 1)[1]["inputs"]["first_batch_sha256"]
    assert first == again != other


def test_compare_refuses_other_inputs():
    record = {"workload": "verify_small", "trace": 0, "environment": {"seed": 1},
              "inputs": {"first_batch_sha256": "aa"},
              "metrics": {"latency_p50_ms": {"value": 10.0, "unit": "ms"}}}
    faster = copy.deepcopy(record)
    faster["metrics"]["latency_p50_ms"]["value"] = 8.0
    assert "x0.800" in compare(record, faster)[0]
    faster["inputs"]["first_batch_sha256"] = "bb"
    with pytest.raises(ValueError, match="digests differ"):
        compare(record, faster)


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
