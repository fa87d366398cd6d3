"""The committed BENCH_*.json files: each records the commits it compares,
every run in it is correct with no failed request, and its summary
medians (and quartiles, where given) are those of its trace-0 runs."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_consistent(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    sides = ("parent", "change")
    for side in sides:
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]), side
    assert doc["parent"] != doc["change"]
    runs = doc["runs"]
    assert {r["side"] for r in runs} == set(sides)
    for run in runs + doc.get("superseded_runs", []):
        res = run["result"]
        assert res["correct"] is True, run["command"]
        assert res["failed"] == 0, run["command"]
    for run in runs:
        assert run["commit"] == doc[run["side"]], run["command"]
    for workload, metrics in doc["summary_medians"].items():
        for metric, summary in metrics.items():
            for side in sides:
                values = [r["result"]["metrics"][metric]["value"]
                          for r in runs if r["trace"] == 0
                          and r["workload"] == workload
                          and r["side"] == side]
                where = (workload, metric, side)
                assert summary[side + "_median"] == \
                    statistics.median(values), where
                if side + "_quartiles" in summary:
                    q = statistics.quantiles(values, n=4, method="inclusive")
                    assert summary[side + "_quartiles"] == [q[0], q[2]], \
                        where
