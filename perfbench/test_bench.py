"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke runs use each workload's ``tiny`` overrides, so they check the
plumbing and the gates, not the timings.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import bench
from tracer import TRACED
from workloads import DEFAULT_SEED, PIPELINES, WORKLOADS, gate_errors

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    run = bench.run_workload(name, seed=1, seconds=0, trace=False, tiny=True)
    result = run["result"]
    assert result["correct"], [r["failures"] for r in run["reps"]]
    assert (result["attempted"], result["failed"]) == (bench.MIN_REPS, 0)
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    run = bench.run_workload(name, seed=1, seconds=0, trace=True, tiny=True)
    result = run["result"]
    assert result["correct"], [r["failures"] for r in run["reps"]]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    traced = [p for r in run["reps"] if r["traced"] for p in r["parts"]]
    assert traced and all(p["restored"] for p in traced)
    # The traced CSVs matched the untraced ones, or the run would have failed.
    shas = {(p["pipeline"], p["csv_sha256"]) for r in run["reps"] for p in r["parts"]}
    assert len(shas) == len(WORKLOADS[name])
    assert abs(result["metrics"]["trace.self_sum_frac"]["value"] - 1.0) < 0.05
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    for pipeline in WORKLOADS[name]:
        assert calls[f"experiments.run_{pipeline.config['pipeline'].replace('-', '_')}.calls"] == 1
    assert calls["experiments.ExperimentReport.write.calls"] == len(WORKLOADS[name])


def test_wrong_pinned_sha_fails_the_run():
    run = bench.run_workload("frt-dp", seed=1, seconds=0, trace=False,
                             tiny=True, pinned={"dp-transfer-u10": {1: "0" * 64}})
    on_pin = [r for r in run["reps"] if r["seed"] == 1]
    assert len(on_pin) == run["result"]["failed"] == 2
    assert not run["result"]["correct"]
    assert all(r["failures"] == [r["failures"][0]] for r in on_pin)
    assert all(r["failures"][0].startswith("dp-transfer-u10: csv sha256") for r in on_pin)


def test_repetitions_pair_up_on_seeds_then_vary():
    k = bench.SEED_STRIDE
    assert [bench.rep_seed(5, i, trace=False) for i in range(4)] == [5, 5, 5 + k, 5 + 2 * k]
    assert [bench.rep_seed(5, i, trace=True) for i in range(4)] == [5, 5, 5 + k, 5 + k]


@pytest.mark.parametrize("config, aggregates, row", [
    ({"pipeline": "steiner-lb"}, {"girth": 4},
     {"trial": 0, "good": True, "lhs": 1.0, "x_size": 2}),
    ({"pipeline": "tsp-lb"}, {},
     {"trial": 0, "e1": True, "e2": True, "lhs": 1.0, "rhs": 2.0}),
    ({"pipeline": "universal-upper"}, {"violations": {"domination": 0, "doubling": 1}},
     {"trial": 0}),
    ({"pipeline": "dp-transfer", "mechanisms": 2},
     {"audit_failures": 0, "transfer_failures": 0, "transfer_applicable": 1},
     {"trial": 0}),
])
def test_each_gate_can_fail(config, aggregates, row):
    report = SimpleNamespace(aggregates=aggregates, rows=[row])
    assert gate_errors(config, report)


@pytest.mark.parametrize("name", NAMES)
def test_injected_falsification_fails_the_run(name):
    run = bench.run_workload(name, seed=1, seconds=0, trace=False, tiny=True,
                             inject="falsification")
    assert run["result"]["failed"] == run["result"]["attempted"] > 0
    assert all("CertificateFalsification" in f for r in run["reps"] for f in r["failures"])


def test_pins_match_the_acceptance_csvs(tmp_path):
    """Each pin is the sha256 of the pipeline's CSV at the default seed, and
    that CSV is its acceptance config's CSV, or the first lines of it."""
    for name, workload in PIPELINES.items():
        config = workload.make_config(DEFAULT_SEED)
        acceptance = workload.acceptance
        rep = bench.run_rep({**config, **acceptance.overrides}, False, tmp_path, 0)
        assert rep["error"] is None and not rep["gate_errors"], (name, rep)
        assert rep["csv_sha256"] == acceptance.sha256, name
        rows = 0
        if acceptance.overrides:
            rows = bench.run_rep(config, False, tmp_path, 1)["rows"]
        lines = (tmp_path / "rep0.csv").read_bytes().splitlines(keepends=True)
        head = b"".join(lines[:rows + 1] if rows else lines)
        assert hashlib.sha256(head).hexdigest() == workload.pinned[DEFAULT_SEED], name
        if rows:
            assert (tmp_path / "rep1.csv").read_bytes() == head, name


def test_tracer_restores_every_rebound_name():
    from tracer import Tracer
    from univlb import adversary, experiments, walks
    originals = (walks.random_walk, experiments.random_walk, adversary.random_walk,
                 experiments.ExperimentReport.write)
    tracer = Tracer()
    tracer.install(TRACED)
    assert experiments.random_walk is not originals[1]
    assert tracer.restore()
    assert (walks.random_walk, experiments.random_walk, adversary.random_walk,
            experiments.ExperimentReport.write) == originals


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
