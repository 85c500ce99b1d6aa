"""The committed benchmark results: each ``BENCH_<short rev>.json`` at the
root of the repository is the last line of ``python3 perfbench/run.py
--workload all``, one per measured commit."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_a_bench_file_holds_every_workload_and_end_to_end_metric(path):
    """It parses, was measured at the revision its name gives, names
    exactly the workloads of BENCHMARK.json, and gives each its end-to-end
    metrics, as numbers, and its output hash."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["environment"]["git_revision"].startswith(path.stem[len("BENCH_"):])
    workloads = record["workloads"]
    assert set(workloads) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, result in workloads.items():
        metrics = result["end_to_end"]
        for metric in BENCHMARK["end_to_end"]:
            value = metrics[metric["name"]]
            assert isinstance(value, (int, float)) and value >= 0, (name, metric["name"])
        assert len(result["output_sha256"]) == 64, name
