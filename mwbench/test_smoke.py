"""Smoke test of the benchmark itself, at toy size.

    python3 -m pytest -q mwbench/test_smoke.py

Every workload must print each metric BENCHMARK.json names, with its unit,
in both modes; a corrupted instance must fail the gate (the negative
control); and without the program's sources the benchmark must refuse to
run rather than print a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--toy", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done) -> dict:
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


def assert_metrics(res: dict, spec: list[dict]):
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    done = run(workload, "--trace", "0")
    assert done.returncode == 0, done.stderr
    res = result(done)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["instances_per_s"]["unit"] == "1/s"
    assert info["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    done = run(workload, "--trace", "1")
    assert done.returncode == 0, done.stderr
    res = result(done)
    assert res["correct"] and res["failed"] == 0
    assert_metrics(res, SPEC["per_layer"])
    assert res["metrics"]["lapack.calls"]["value"] > 0


def test_traced_counts_repeat():
    counts = [result(run("campaign-small", "--trace", "1"))["metrics"]["lapack.calls"]["value"]
              for _ in range(2)]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_instance_fails_gate(workload):
    done = run(workload, "--trace", "0", "--corrupt")
    assert done.returncode != 0
    res = result(done)
    assert not res["correct"] and res["failed"] >= 1
    assert "gate:" in done.stderr


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], "--trace", "0", cwd=tmp_path,
               script=tmp_path / BENCH_DIR.name / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
