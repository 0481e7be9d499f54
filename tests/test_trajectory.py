"""The checked-in benchmark trajectory: every ``BENCH_*.json`` at the repo
root is a whole, passing collection of the workloads ``BENCHMARK.json``
declares, over the same seeds as every other such file."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(w["name"] for w in BENCHMARK["workloads"])
# metric name -> (unit, bound), as declared
METRICS = {m["name"]: (m["unit"], m["bound"]) for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_there_is_a_trajectory():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_each_file_holds_every_workload_correct(path):
    bench = _load(path)
    assert sorted(bench) == WORKLOADS
    for name, entry in bench.items():
        assert entry["correct"] is True, name
        assert entry["failed"] and all(f == 0 for f in entry["failed"]), name
        assert len(entry["failed"]) == len(entry["seeds"]), name


def test_all_files_share_one_seed_list():
    seeds = {tuple(entry["seeds"]) for path in FILES for entry in _load(path).values()}
    assert len(seeds) == 1


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_each_workload_holds_the_declared_metrics(path):
    for name, entry in _load(path).items():
        runs = len(entry["seeds"])
        assert len(entry["attempted"]) == runs, name
        metrics = entry["metrics"]
        assert sorted(metrics) == sorted(METRICS), name
        for metric, summary in metrics.items():
            where = "%s %s" % (name, metric)
            assert (summary["unit"], summary["bound"]) == METRICS[metric], where
            assert len(summary["values"]) == runs, where
            assert summary["q1"] <= summary["median"] <= summary["q3"], where
