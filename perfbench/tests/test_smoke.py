"""Smoke test for the benchmark: every workload with every check on, one
period untraced and one cycle traced.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_cycle(name, monkeypatch):
    wl = run.load_workloads(ROOT)[name]
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seconds", "0"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0
    assert result["attempted"] == wl.period
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_cycle(name):
    wl = run.load_workloads(ROOT)[name]
    traced = run.traced(wl, run.DEFAULT_SEED, wl.ref_len)
    assert traced["failures"] == []
    metrics = run.layer_metrics(wl, traced,
                                [m["name"] for m in SPEC["per_layer"]])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    spans = traced["tracer"].spans
    assert {s[4] for s in spans} == set(range(wl.ref_len))
    assert all(s[1] <= s[2] for s in spans)


def test_reference_scales_follow_the_nearby_probes():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.REFERENCE_WINDOW == 2
    scales = run.reference_scales([nominal] * 6 + [2 * nominal] * 6)
    assert scales[:4] == [1.0] * 4
    assert scales[8:] == [0.5] * 4


def test_refuses_a_directory_without_the_program(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", NAMES[0]]) == 2
    assert capsys.readouterr().out == ""
