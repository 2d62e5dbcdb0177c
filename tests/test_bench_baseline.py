"""The committed benchmark baseline, read back by ``tools/bench_baseline.py
--summary``; no benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def test_every_workload_has_a_baseline():
    assert sorted(path.name for path in ROOT.glob("BENCH_*.json")) == sorted(
        f"BENCH_{workload}.json" for workload in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_baseline_summary(workload):
    # every end-to-end metric over ten parent/change pairs, and every
    # recorded run, traced or not, passed the benchmark's gates
    path = ROOT / f"BENCH_{workload}.json"
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_baseline.py"),
                          "--summary", str(path)],
                         check=True, capture_output=True, text=True).stdout
    rows = {}
    for line in out.splitlines():
        name, metric, row = line.split(" ", 2)
        assert name == workload
        rows[metric] = json.loads(row)
    assert set(rows) == METRICS and len(rows) == 7
    assert all(row["pairs"] == 10 for row in rows.values())
    bench = json.loads(path.read_text(encoding="utf-8"))
    runs = bench["parent"]["runs"] + bench["change"]["runs"]
    assert runs and all(run["final"]["correct"] is True for run in runs)
