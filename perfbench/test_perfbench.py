"""Self-test of the benchmark at smoke size.

Every workload must report every metric named in ``BENCHMARK.json`` with no
failed check, and a planted wrong reference value must show up as a failure.
Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SRC = ROOT / "src"


def smoke(name: str, trace: bool) -> dict:
    return run.measure(workloads.WORKLOADS[name], seed=1, seconds=0, trace=trace,
                       src_dir=SRC, size="smoke")


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke_reports_every_end_to_end_metric_and_timing(name):
    rec = smoke(name, trace=False)
    assert rec["correct"] and rec["failed"] == 0 and rec["attempted"] > 0
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(rec["timings"]) == set(run.TIMINGS)
    assert all(m["value"] > 0 for m in [*rec["metrics"].values(), *rec["timings"].values()])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_reports_every_per_layer_metric(name):
    rec = smoke(name, trace=True)
    assert rec["correct"] and rec["failed"] == 0
    assert rec["traced_checks_match_untraced"]
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_planted_wrong_table1_value_counts_as_failure(monkeypatch):
    monkeypatch.setitem(workloads.TABLE1_REFERENCE, 89, 7)
    rec = smoke("table1_game", trace=False)
    assert not rec["correct"]
    assert 0 < rec["failed_frac"] < 1


def test_planted_wrong_solution_counts_as_failure(monkeypatch):
    monkeypatch.setattr(workloads, "DEFAULT_SOLUTION", "01010010011")
    rec = smoke("word_equation", trace=False)
    assert not rec["correct"]
    assert rec["failed"] == rec["attempted"] == 1


def test_refuses_to_run_without_the_sources(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "table1_game", "--seconds", "1"]) == 2
