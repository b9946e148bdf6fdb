"""Smoke test of the benchmark: one tiny burst per workload, both run kinds.

    python -m pytest perfbench/tests -q

Checks that every metric BENCHMARK.json names comes out with its unit, that
names and directions are well formed, and that the workloads agree with the
benchmark's own table.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_workloads_match_the_spec():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    for w in WORKLOADS.values():
        for layer, moves in w.layers.items():
            assert any(m["name"].startswith(layer + ".") for m in SPEC["per_layer"])
            assert set(moves) <= {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present_with_unit(workload, trace):
    result, report = bench.measure(
        workload, seed=3, seconds=0.01, trace=trace, bursts=1, payload_len=960,
        setup_runs=1,
    )
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
        assert m["better"] in ("higher", "lower")
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    assert report["meta"]["seed"] == 3
    assert len(report["decisions"]["digest"]) == 64
