"""The chunked trial engine of steiner-lb and tsp-lb against the per-trial
loops in ``kernels_ref``: the same rows, the same CSV bytes and the same
trial counts, whatever the chunk size."""

from __future__ import annotations

from dataclasses import replace

import pytest

from kernels_ref import steiner_lb_ref, tsp_lb_ref
from test_harness import _tailed_triangle
from univlb import experiments
from univlb.cli import main as cli_main
from univlb.experiments import RunConfig, run_experiment

SEED = 20250808


CASES = {
    "steiner-cert": dict(pipeline="steiner-lb", graph="lps:5,13", t="auto", trials=600),
    "steiner-frt": dict(pipeline="steiner-lb", graph="lps:13,5", solution="frt",
                        solution_count=4, t=1, trials=301, seed=2),
    "steiner-oracle": dict(pipeline="steiner-lb", graph="lps:13,5", t="auto", trials=200,
                           oracle_cap=1),
    "steiner-file": dict(pipeline="steiner-lb", graph="tailed", t=3, trials=301,
                         oracle_cap=2, seed=4),
    "steiner-zero": dict(pipeline="steiner-lb", graph="lps:5,13", trials=0),
    "tsp-random-tour": dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                            solution_count=8, t=2, trials=600),
    "tsp-spt-tour-t2": dict(pipeline="tsp-lb", graph="lps:5,13", solution="spt-tour",
                            t=2, trials=600),
    "tsp-spt-tour-t3": dict(pipeline="tsp-lb", graph="lps:5,13", solution="spt-tour",
                            t=3, trials=600),
    "tsp-oracle": dict(pipeline="tsp-lb", graph="lps:13,5", t=1, trials=200, oracle_cap=3),
    "tsp-file": dict(pipeline="tsp-lb", graph="tailed", t=1, blocks=2, trials=301, seed=4),
    "tsp-zero": dict(pipeline="tsp-lb", graph="lps:5,13", trials=0),
}


# 1 << 21 is the default; 4000 bytes cut every case with trials into
# several chunks, the last one shorter.
@pytest.mark.parametrize("chunk_bytes", [1 << 21, 4000])
@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_the_per_trial_loop(name, chunk_bytes, tmp_path, monkeypatch):
    config = dict(CASES[name], seed=CASES[name].get("seed", SEED))
    if config["graph"] == "tailed":
        config["graph"] = f"file:{_tailed_triangle(tmp_path)}"
    cfg = RunConfig.make(**config)
    monkeypatch.setattr(experiments, "CHUNK_BYTES", chunk_bytes)
    chunks = []
    real_chunks = experiments._chunks
    monkeypatch.setattr(experiments, "_chunks",
                        lambda *args: chunks.extend(real_chunks(*args)) or chunks)
    report = run_experiment(cfg)
    if chunk_bytes == 4000 and cfg.trials:
        assert len(chunks) > 1 and len(chunks[-1]) < len(chunks[0])
    if cfg.oracle_cap:
        assert len({row["opt_kind"] for row in report.rows}) == 2  # oracle and surrogate
    ref = (steiner_lb_ref if cfg.pipeline == "steiner-lb" else tsp_lb_ref)(cfg)
    assert len(report.rows) == cfg.trials

    def types(rows):
        return [{key: type(value) for key, value in row.items()} for row in rows]

    assert types(report.rows) == types(ref.rows)  # Python scalars, as the CSV cells need
    assert report.csv_text() == ref.csv_text()
    for key, value in ref.aggregates.items():
        assert report.aggregates[key] == value, key


def test_chunks_cover_the_trials_in_order(monkeypatch):
    monkeypatch.setattr(experiments, "CHUNK_BYTES", 100)
    chunks = experiments._chunks(23, 30)  # 3 trials per chunk
    assert [len(c) for c in chunks] == [3] * 7 + [2]
    assert [trial for c in chunks for trial in c] == list(range(23))
    assert experiments._chunks(0, 30) == []
    assert [len(c) for c in experiments._chunks(2, 10 ** 9)] == [1, 1]  # never empty


def test_tsp_and_steiner_reports_carry_the_same_beta():
    steiner = run_experiment(RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=5))
    tsp = run_experiment(RunConfig.make(pipeline="tsp-lb", graph="lps:5,13", trials=5))
    assert tsp.aggregates["beta"] == steiner.aggregates["beta"] is not None


@pytest.mark.parametrize("pipeline, certificate", [("steiner-lb", "steiner_certificate"),
                                                   ("tsp-lb", "tsp_certificate")])
def test_a_failed_certificate_names_its_trial_and_exits_2(pipeline, certificate,
                                                          monkeypatch, capsys):
    # the third certified trial fails: the run stops there and names it
    argv = ["--graph", "lps:5,13", "--trials", "300", "--t", "2", "--seed", str(SEED)]
    report = run_experiment(RunConfig.make(pipeline=pipeline, graph="lps:5,13", trials=300,
                                           t=2, seed=SEED))
    certified = [row["trial"] for row in report.rows
                 if (row["good"] if pipeline == "steiner-lb" else row["e1"] and row["e2"])]
    assert len(certified) >= 3
    real = getattr(experiments, certificate)
    calls = []

    def third_fails(*args):
        calls.append(args)
        result = real(*args)
        return replace(result, holds=False) if len(calls) == 3 else result

    monkeypatch.setattr(experiments, certificate, third_fails)
    assert cli_main([f"run-{pipeline}", *argv]) == 2
    assert f"certificate failed at trial {certified[2]}:" in capsys.readouterr().err
    assert len(calls) == 3
