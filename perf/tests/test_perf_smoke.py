"""Smoke tests of the benchmark itself, at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest -q perf/tests`` from the repo root
(tier-1's ``testpaths`` does not collect this directory).
"""

from __future__ import annotations

import copy
import json

import pytest

from perf import drive, run, workloads


def measure(capsys, workload: str, trace: int, seed: int = 7) -> tuple[int, dict]:
    """One in-process ``--smoke`` run; returns (exit code, result object)."""
    code = run.main([
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--smoke",
    ])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def values(result: dict, names) -> dict:
    return {name: result["metrics"][name]["value"] for name in names}


@pytest.mark.parametrize("workload", ["bminus_update", "lsm_read"])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(capsys, workload, trace, section):
    code, result = measure(capsys, workload, trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in run.declared()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared


def test_benchmark_json_lists_the_workloads():
    declared = [w["name"] for w in run.declared()["workloads"]]
    assert declared == [w.name for w in workloads.WORKLOADS]


def test_sim_side_metrics_are_a_function_of_the_seed(capsys):
    _, first = measure(capsys, "lsm_insert", 0, seed=7)
    _, again = measure(capsys, "lsm_insert", 0, seed=7)
    _, other = measure(capsys, "lsm_insert", 0, seed=8)
    assert values(first, run.SIM_END_TO_END) == values(again, run.SIM_END_TO_END)
    assert values(first, run.SIM_END_TO_END) != values(other, run.SIM_END_TO_END)


@pytest.mark.parametrize("workload", ["bminus_hot_batch", "lsm_insert"])
def test_traced_round_reproduces_the_untraced_sim_side(workload):
    spec = workloads.BY_NAME[workload].scaled(0.1)
    oplist = workloads.generate(spec, 7)
    geom = drive.geometry(spec)
    untraced = drive.run_round(spec, oplist, geom, 7, traced=False)
    traced = drive.run_round(spec, oplist, geom, 7, traced=True)
    assert not untraced.problems and not traced.problems
    assert traced.sim == untraced.sim
    assert traced.trace["bench.ledger_residual"] < 0.02


def test_corrupted_shadow_model_fails_the_command(capsys, monkeypatch):
    class Corrupted(workloads.ShadowModel):
        def __init__(self, populate):
            super().__init__(populate)
            self.data[self.keys[0]] = b"not what was written"

    monkeypatch.setattr(drive, "ShadowModel", Corrupted)
    code, result = measure(capsys, "bminus_read", 0)
    assert code != 0 and result["correct"] is False


def test_check_gates_sim_side_exactly_and_host_side_by_its_bound():
    bench = run.declared()
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "host_ops_per_s")
    then = {
        "end_to_end": {m["name"]: {"median": 100.0} for m in bench["end_to_end"]},
        "per_layer": {m["name"]: 5 for m in bench["per_layer"]},
    }
    within = copy.deepcopy(then)
    within["end_to_end"]["host_ops_per_s"]["median"] = 100.0 * (1 - bound / 2)
    within["per_layer"]["engine.self_s"] = 9  # host clock: reported, not gated
    assert run.against_baseline("w", within, then, bench) == []

    moved = copy.deepcopy(then)
    moved["end_to_end"]["host_ops_per_s"]["median"] = 100.0 * (1 - 2 * bound)
    moved["end_to_end"]["wa_total"]["median"] = 100.0001
    moved["per_layer"]["lsm.tables"] = 6
    failures = run.against_baseline("w", moved, then, bench)
    assert len(failures) == 3 and all(f.startswith("w: ") for f in failures)
