"""Tiny-size smoke run of every workload: ``python3 -m pytest bench``."""

import json
from pathlib import Path

import pytest

import run
import spans

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_without_errors(workload, trace):
    res = run.run(workload, seed=1, seconds=0, trace=trace, small=True)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in res["metrics"].values())
    assert res["error_share"] == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0


def test_declared_layers_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
