"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run every workload briefly through the real command, check that
the metric names and units printed are exactly those ``BENCHMARK.json``
declares, and check that a wrong output is counted as a failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

sys.path.insert(0, str(ROOT / "src"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = names + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(every) == len(set(every))
    assert all(NAME.match(n) for n in every)
    units = [m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    # every per-layer metric says which end-to-end metric it should move
    assert set(layers.MOVES) == {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_front_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        workloads, "expected_front", lambda front: (front[0] + " ", front[1])
    )
    code = run.main(["--workload", "explore-gen1k-jobs1", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_perturbed_served_payload_is_a_failure(monkeypatch):
    def perturb(expected):
        return {
            key: (value + b" " if key[1] == "max" else value)
            for key, value in expected.items()
        }

    monkeypatch.setattr(workloads, "expected_served", perturb)
    result = workloads.run_workload("serve-estimate-bundled", 3, 0.5, False)
    assert 0 < result.failed < result.attempted
    assert "differs from api.estimate" in result.failures[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "open-gen10k", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
