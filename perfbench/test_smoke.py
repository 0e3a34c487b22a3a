"""Smoke test of the benchmark: each workload once at a tiny size, in
both modes.  Every metric ``BENCHMARK.json`` names for the mode must be
printed with its unit, and no operation may fail.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py -q``
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "3", "--trace", str(trace),
           "--scale", "0.05"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    want = BENCH["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in want}
    for m in want:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]
    if trace:
        assert got["ops_failed_share"]["value"] == 0
