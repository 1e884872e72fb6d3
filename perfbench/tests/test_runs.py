"""A minimal run of each workload emits every named metric."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in
               SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_benchmark_json_matches_the_code():
    from perfbench import run

    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _metrics(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload,seconds", [
    ("wire", 4), ("train", 4), ("stream", 4)])
def test_minimal_run_emits_every_metric(workload, seconds):
    metrics = _metrics(_run(workload, seconds, 0))
    expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, v["unit"]) for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())

    metrics = _metrics(_run(workload, seconds, 1))
    expected = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert {(k, v["unit"]) for k, v in metrics.items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train", 2, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
