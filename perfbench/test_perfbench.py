"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

A smoke size of every workload passes its checks and emits every metric
named in BENCHMARK.json; a fault injected into ``evolve`` shows up as
failed ops on every workload, so the checks are not vacuous.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
import worker  # noqa: E402
from plamb import approximants, cli, reduction, simulation, syntax  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_and_emits_end_to_end_metrics(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_emits_per_layer_metrics(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.6", "--trace", "1")
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCH["per_layer"])
    for m in BENCH["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["reduction.evolve.calls"] > 0
    if workload == "reduce":
        # the bypass workload never reaches the upper layers
        for name, value in metrics.items():
            if name.startswith(("lifting.", "simulation.", "approximants.")):
                assert value == 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "reduce", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.decode().strip() == ""


def _dropping_evolve(real):
    """An evolve whose value distribution loses its first entry."""

    def evolve(d, fuel):
        r = real(d, fuel)
        values = syntax.Dist(r.values.entries()[1:])
        return reduction.EvolveReport(values, r.residual, r.steps_used, r.converged, r.limit_exact)

    return evolve


@pytest.mark.parametrize("workload, module", [
    ("reduce", reduction),
    ("simulate", simulation),
    ("approximate", approximants),
    ("cli", cli),
])
def test_fault_in_evolve_shows_as_failed_ops(workload, module, monkeypatch):
    monkeypatch.setattr(module, "evolve", _dropping_evolve(reduction.evolve))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main(["--workload", workload, "--seed", "5", "--seconds", "1.0",
                     "--t0", "0", "--trace", "0"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    assert res["failed"] > 0
    assert res["failed"] / res["attempted"] > 0


def test_op_order_is_seeded_and_spreads_over_the_cost_order():
    items = list(range(1000))  # stands for items stored in order of cost
    a = ops.op_order(items, 7)
    assert a == ops.op_order(items, 7)
    assert a != ops.op_order(items, 8)
    assert sorted(a) == items
    for n in (16, 64, 256):
        # every prefix has about one item per 1/n of the cost order
        cells = sorted(x * n // len(items) for x in a[:n])
        assert len(set(cells)) >= n - 1
