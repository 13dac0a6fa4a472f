"""Smoke test of ``tools/retained_bytes.py`` on a tiny scenario."""

from repro.core.coda import CodaScheduler
from repro.experiments.scenarios import small_scenario
from tools import retained_bytes


def _tiny(seed, index):
    scenario = small_scenario(duration_days=0.01, nodes=3, seed=seed + index)
    return retained_bytes.Case(scenario, CodaScheduler)


def test_each_kept_result_adds_retained_bytes():
    readings = retained_bytes.retained([lambda: _tiny(1, 0), lambda: _tiny(1, 1)])
    assert len(readings) == 2
    assert 0 < readings[0] < readings[1]


def test_prints_the_cumulative_table(monkeypatch, capsys):
    monkeypatch.setitem(retained_bytes.SIM_WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(retained_bytes, "WORKLOAD", "tiny")
    monkeypatch.setattr(retained_bytes, "INPUTS", 2)
    assert retained_bytes.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tiny, seed 1: bytes retained after a full collection"
    assert lines[1] == "| Inputs kept | Retained | Per result |"
    assert [line.split("|")[1].strip() for line in lines[3:]] == ["1", "2"]
