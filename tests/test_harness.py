from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernels_ref import collection_ref, csv_text_ref, graph_paths_ref, path_tuples
from univlb import adversary, experiments
from univlb import rng as rngs
from univlb.cli import build_parser, main as cli_main
from univlb.experiments import (
    CertificateFalsification,
    ConfigError,
    ExperimentReport,
    RunConfig,
    emit_plot_data,
    run_experiment,
)
from univlb.frt import frt_sample, hst_to_spanning_tree
from univlb.graphs import Graph, GraphError, diameter_ecc, read_graph, write_graph
from univlb.metric import shortest_path_metric
from univlb.oracles import opt_surrogates, steiner_exact, tsp_exact
from univlb.solutions import bfs_tree, tree_to_path_collection
from univlb.walks import random_walk


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", bogus=1)


def test_config_requires_pipeline():
    with pytest.raises(ConfigError):
        RunConfig.make(graph="lps:5,13")


def test_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "pipeline = steiner-lb\n"
        "graph = lps:5,13\n"
        "trials = 50\n"
        "seed = 9\n"
    )
    cfg = RunConfig.make(**{**RunConfig.parse_file(cfg_file), "trials": 20})
    assert cfg.trials == 20
    assert cfg.seed == 9
    assert cfg.pipeline == "steiner-lb"

    bad = tmp_path / "bad.cfg"
    bad.write_text("pipeline steiner-lb\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        RunConfig.parse_file(bad)


def test_config_fields_match_flags_and_files(tmp_path):
    names = {f.name for f in fields(RunConfig)}
    subparsers = build_parser()._subparsers._group_actions[0].choices
    runs = [name for name in subparsers if name.startswith("run-")]
    assert len(runs) == 4
    for name in runs:
        dests = {a.dest for a in subparsers[name]._actions} - {"help", "config"}
        assert dests <= names, (name, dests - names)

    cfg = RunConfig.make(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                         trials=7, t=3, seed=11, csv="rows.csv", eps=0.25)
    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                                for f in fields(RunConfig)))
    assert RunConfig.make(**RunConfig.parse_file(cfg_file)) == cfg


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("t, checks", [("auto", 1), (8, 0)])  # girth 8: t=8 certifies nothing
def test_graph_paths_checked_only_in_certificate_mode(monkeypatch, t, checks):
    calls = _count_calls(monkeypatch, experiments, "_graph_paths")
    run_experiment(RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", t=t, trials=5))
    assert len(calls) == checks


def test_steiner_lb_projects_each_trial_once(monkeypatch):
    # a certified trial takes lhs from the certificate's own projection, and
    # the chunk projection takes every other row (args[2] is its walk block)
    in_chunks = _count_calls(monkeypatch, experiments, "project_path_rows")
    in_certificate = _count_calls(monkeypatch, adversary, "project_paths")
    report = run_experiment(RunConfig.make(pipeline="steiner-lb", graph="lps:5,13",
                                           t="auto", trials=200))
    assert report.aggregates["certified_samples"] == len(in_certificate) > 0
    assert sum(len(args[2]) for args in in_chunks) + len(in_certificate) == 200


# tsp-lb at oracle_cap=3 draws no X that small in 30 trials (two t=2 walks
# mostly give |X| = 6), so its cap is 5: both sides of the cap are reached.
@pytest.mark.parametrize("pipeline, t, cap", [("steiner-lb", "auto", 2), ("tsp-lb", 2, 5)])
def test_oracle_rows_divide_by_the_exact_optimum(lps_5_13, lps_5_13_metric, pipeline, t, cap):
    g, cert = lps_5_13
    seed = 20250808
    report = run_experiment(RunConfig.make(pipeline=pipeline, graph="lps:5,13", t=t,
                                           trials=30, oracle_cap=cap, seed=seed))
    kinds = {row["opt_kind"] for row in report.rows}
    assert len(kinds) == 2 and "oracle" in kinds
    for row in report.rows:
        assert (row["opt_kind"] == "oracle") == (row["x_size"] <= cap)
        if row["opt_kind"] != "oracle":
            continue
        walks = [random_walk(g, row["t"], rngs.stream(seed, rngs.WALK, row["trial"]))]
        if pipeline == "tsp-lb":
            walks.append(random_walk(g, row["t"], rngs.stream(seed, rngs.WALK2, row["trial"])))
        x = set().union(*(w.tolist() for w in walks)) - {0}
        assert len(x) == row["x_size"]
        bounds = opt_surrogates([len(w) - 1 for w in walks], cert.diameter)
        if pipeline == "steiner-lb":
            opt, surrogate = steiner_exact(lps_5_13_metric, x), bounds.steiner
        else:
            opt, surrogate = tsp_exact(lps_5_13_metric, x), bounds.tsp
        assert row["ratio"] == row["lhs"] / opt
        assert opt <= surrogate


def test_graph_paths_detects_a_metric_edge(lps_5_13):
    g, _ = lps_5_13
    spt = tree_to_path_collection(bfs_tree(g, 0))
    assert experiments._graph_paths(spt, g)
    paths = path_tuples(spt)
    v = next(v for v, path in enumerate(paths) if len(path) >= 3)
    paths[v] = (v,) + paths[v][2:]  # v is two hops from paths[v][2]; girth 8
    shortcut = collection_ref(spt.root, paths)
    assert not experiments._graph_paths(shortcut, g)


def test_graph_paths_matches_the_isin_reference_on_frt_trees(lps_5_13, lps_5_13_metric):
    # FRT-contracted trees carry metric edges. Each is checked whole, and
    # the SPT with one path swapped for an FRT path, for a detour through a
    # neighbour (graph edges only) or through a vertex at distance 7 (a
    # non-edge step)
    g, _ = lps_5_13
    spt = tree_to_path_collection(bfs_tree(g, 0))
    assert experiments._graph_paths(spt, g) and graph_paths_ref(spt, g)
    spt_paths = path_tuples(spt)
    verdicts = set()
    for i in range(4):
        h = frt_sample(lps_5_13_metric, rngs.stream(8, rngs.TREE, i))
        frt = tree_to_path_collection(hst_to_spanning_tree(h, lps_5_13_metric))
        assert not experiments._graph_paths(frt, g) and not graph_paths_ref(frt, g)
        frt_paths = path_tuples(frt)
        for v in range(1, g.n, 271):
            far = int(np.argmax(lps_5_13_metric.dist[v]))
            w = int(g.neighbor_table[v, i])
            for path in (frt_paths[v], (v, w, *spt_paths[w][1:]),
                         (v, far, *spt_paths[far][1:])):
                paths = list(spt_paths)
                paths[v] = path
                q = collection_ref(spt.root, paths)
                verdicts.add(experiments._graph_paths(q, g))
                assert experiments._graph_paths(q, g) == graph_paths_ref(q, g)
    assert verdicts == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.data())
def test_graph_paths_matches_the_isin_reference(n, data):
    vertex = st.integers(0, n - 1)
    g = Graph(n=n, edges=data.draw(st.lists(st.tuples(vertex, vertex), max_size=20)))
    root = data.draw(vertex)
    paths = tuple(() if v == root else (v, *data.draw(st.lists(vertex, max_size=4)), root)
                  for v in range(n))
    p = collection_ref(root, paths)
    assert experiments._graph_paths(p, g) == graph_paths_ref(p, g)


_CELL_VALUES = {
    "bool": st.booleans(),
    "int": st.integers(-2 ** 70, 2 ** 70),
    "float": st.one_of(st.floats(), st.sampled_from([float("nan"), float("inf"),
                                                     float("-inf"), -0.0, 0.0])),
    "none": st.none(),
    "str": st.one_of(st.text(), st.sampled_from(['a,b', 'say "x"', "two\nlines",
                                                 "cr\r", ",\"\n", ""])),
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([*_CELL_VALUES, "mixed"]), min_size=1, max_size=5),
       st.integers(0, 8), st.data())
def test_csv_text_matches_the_per_cell_writer(kinds, count, data):
    mixed = st.one_of(*_CELL_VALUES.values())
    columns = [f"c{i}" for i in range(len(kinds))]
    rows = []
    for _ in range(count):
        row = {c: data.draw(mixed if kind == "mixed" else _CELL_VALUES[kind])
               for c, kind in zip(columns, kinds)}
        if data.draw(st.booleans()):  # a missing key reads as None
            row.pop(data.draw(st.sampled_from(columns)))
        rows.append(row)
    report = ExperimentReport(config={}, columns=columns, rows=rows)
    assert report.csv_text() == csv_text_ref(report)


def test_csv_text_matches_the_per_cell_writer_on_pipeline_rows():
    for cfg in (dict(pipeline="steiner-lb", graph="lps:5,13", trials=300, oracle_cap=2),
                dict(pipeline="tsp-lb", graph="lps:5,13", trials=300, t=2),
                dict(pipeline="universal-upper", metrics=3),
                dict(pipeline="dp-transfer", universe=4, mechanisms=3)):
        report = run_experiment(RunConfig.make(**cfg))
        assert report.csv_text() == csv_text_ref(report)


def _tailed_triangle(tmp_path) -> Path:
    """Graph file: path 5-3-1-0-2-4-6 plus triangle 0-7-8. Girth 3, and
    ecc(0) = 3 is half the diameter 6."""
    g = Graph(n=9, edges=((0, 1), (1, 3), (3, 5), (0, 2), (2, 4), (4, 6),
                          (0, 7), (7, 8), (0, 8)))
    path = tmp_path / "tailed.txt"
    write_graph(g, path)
    return path


def test_load_instance_builds_the_metric_once(monkeypatch, tmp_path):
    # a file graph reads its diameter off the dense metric; tsp-lb reuses it
    graph = _tailed_triangle(tmp_path)
    calls = _count_calls(monkeypatch, experiments, "shortest_path_metric")
    run_experiment(RunConfig.make(pipeline="tsp-lb", graph=f"file:{graph}", trials=5))
    assert len(calls) == 1


def test_diameter_bound_refuses_a_disconnected_graph_above_metric_cap():
    two_triangles = Graph(n=6, edges=((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    with pytest.raises(GraphError, match="disconnected"):
        experiments._diameter_bound(two_triangles, metric_cap=2)


def test_zero_trials_valid_report(tmp_path):
    cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=0,
                         seed=1, csv=str(tmp_path / "out.csv"))
    report = run_experiment(cfg)
    assert report.rows == []
    text = (tmp_path / "out.csv").read_text()
    assert text.splitlines()[0].startswith("trial,n,d,girth,t,x_size,good,e1,e2")
    assert len(text.splitlines()) == 1


def test_csv_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=300,
                             seed=123, csv=str(p))
        run_experiment(cfg)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_different_seed_differs(tmp_path):
    texts = []
    for seed in (1, 2):
        cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=200,
                             seed=seed, csv=str(tmp_path / f"{seed}.csv"))
        run_experiment(cfg)
        texts.append((tmp_path / f"{seed}.csv").read_text())
    assert texts[0] != texts[1]


def test_json_report_written(tmp_path):
    cfg = RunConfig.make(pipeline="dp-transfer", universe=5, mechanisms=2,
                         seed=3, json=str(tmp_path / "rep.json"))
    report = run_experiment(cfg)
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["config"]["universe"] == 5
    assert doc["row_count"] == 2
    assert doc["aggregates"]["audit_failures"] == 0


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("values", [[2.5], [0.0], [-0.0], [3.0, 1.0], [1.0, 1.0], [-0.0, -0.0],
                                    [0.1, 0.7, 0.2], [4.0, 4.0, 1.0, 4.0]])
def test_median_and_quantile_match_numpy_on_small_arrays(values):
    ordered = np.sort(np.array(values))
    assert _bits(experiments._median(ordered)) == _bits(np.median(ordered))
    for q in (0.25, 0.5, 0.75):
        assert _bits(experiments._quantile(ordered, q)) == _bits(np.quantile(ordered, q))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 50.0), st.sampled_from([0.0, 1.0, 2.5, 1e-3])),
                min_size=1, max_size=41))
def test_median_and_quantile_match_numpy(values):
    # ratios are non-negative; the sampled values make ties
    ordered = np.sort(np.array(values))
    assert _bits(experiments._median(ordered)) == _bits(np.median(ordered))
    for q in (0.25, 0.75):
        assert _bits(experiments._quantile(ordered, q)) == _bits(np.quantile(ordered, q))


@pytest.mark.parametrize("values", [[], [np.nan], [1.0, np.nan, 3.0]])
def test_median_and_quantile_are_nan_without_a_number(values):
    ordered = np.sort(np.array(values, dtype=float))
    assert np.isnan(experiments._median(ordered))
    assert np.isnan(experiments._quantile(ordered, 0.25))


def test_lb_pipelines_leave_numpy_ma_unimported(tmp_path):
    # np.median and np.quantile import numpy.ma on first use, some 20 ms of
    # the timed trial phase; the aggregates must be computed without them
    code = """
import sys
from univlb.experiments import RunConfig, run_experiment
for pipeline in ("steiner-lb", "tsp-lb"):
    report = run_experiment(RunConfig.make(pipeline=pipeline, graph="lps:5,13", t=2,
                                           trials=200, seed=5))
    assert report.aggregates["ratio_median"] > 0, report.aggregates
print("numpy.ma" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("t, vacuous, blocks", [
    pytest.param(2, False, "auto", id="2-False"), pytest.param(3, True, "auto", id="3-True"),
    pytest.param(2, True, 6, id="2-True-6-blocks")])
def test_tsp_lb_marks_a_vacuous_config(t, vacuous, blocks, tmp_path):
    # lps(5,13) has diameter 7: E1 asks for walks starting 3t apart. E2 asks
    # each walk's t + 1 vertices to hit 3/4 of the blocks: 3 of the 4 auto
    # blocks at t = 2, but 4.5 of 6 cannot be hit by 3 vertices
    cfg = RunConfig.make(pipeline="tsp-lb", graph="lps:5,13", t=t, blocks=blocks, trials=200,
                         seed=5, json=str(tmp_path / "rep.json"))
    report = run_experiment(cfg)
    agg = json.loads((tmp_path / "rep.json").read_text())["aggregates"]
    assert agg["diameter"] == 7
    assert agg["vacuous"] is vacuous
    assert (agg["e1_samples"] == 0) is (3 * t > 7)
    assert (agg["qualifying_samples"] == 0) is vacuous
    assert "vacuous" not in report.csv_text()


def test_frt_solution_measured_not_certified(tmp_path):
    # contracted FRT trees carry metric edges, so the girth certificate must
    # be skipped while ratios are still reported
    cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:13,5", solution="frt",
                         solution_count=4, trials=120, t=1, seed=2,
                         csv=str(tmp_path / "frt.csv"))
    report = run_experiment(cfg)
    assert report.aggregates["certified_samples"] == 0
    assert len(report.rows) == 120
    assert all(r["ratio"] >= 0 for r in report.rows if r["x_size"])


def test_universal_pipeline_smoke(tmp_path):
    cfg = RunConfig.make(pipeline="universal-upper", metrics=3, trees_per_metric=4,
                         terminals_per_metric=2, metric_size_min=12,
                         metric_size_max=20, seed=4, csv=str(tmp_path / "u.csv"))
    report = run_experiment(cfg)
    v = report.aggregates["violations"]
    assert all(count == 0 for count in v.values())
    assert report.aggregates["mean_ratio"] <= report.aggregates["measured_stretch_max"]
    header = (tmp_path / "u.csv").read_text().splitlines()[0]
    assert header.startswith("trial,n,x_size,mean_tree_cost,opt,ratio")


def test_emit_plot_data_schema():
    rep = ExperimentReport(config={}, columns=[], rows=[],
                           series=[{"series": "s", "x": 1, "y": 2.0,
                                    "ci_lo": 1.5, "ci_hi": 2.5}])
    text = emit_plot_data([rep])
    lines = text.splitlines()
    assert lines[0] == "series,x,y,ci_lo,ci_hi"
    assert len(lines) == 2

    with pytest.raises(ValueError):
        emit_plot_data([ExperimentReport(config={}, columns=[], rows=[])])


def test_emit_plot_data_multiple_series():
    reps = [
        ExperimentReport(config={}, columns=[], rows=[],
                         series=[{"series": "ratio-vs-n", "x": n, "y": 1.0,
                                  "ci_lo": None, "ci_hi": None}])
        for n in (10, 20)
    ]
    lines = emit_plot_data(reps).splitlines()
    assert len(lines) == 3


def test_cli_gen_and_run(tmp_path):
    out = tmp_path / "g.txt"
    rc = cli_main(["gen-expander", "--p", "5", "--q", "13", "--out", str(out)])
    assert rc == 0
    assert out.exists() and (tmp_path / "g.txt.cert.json").exists()
    cert = json.loads((tmp_path / "g.txt.cert.json").read_text())
    assert cert["diameter"] == shortest_path_metric(read_graph(out), 0).dist.max() == 7

    # a file graph's report must hold its true diameter, not ecc(0)
    graph = _tailed_triangle(tmp_path)
    assert diameter_ecc(read_graph(graph)) == 3
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "rep.json"
    rc = cli_main(["run-steiner-lb", "--graph", f"file:{graph}", "--trials", "40",
                   "--t", "1", "--seed", "4", "--csv", str(csv_path),
                   "--json", str(json_path)])
    assert rc == 0
    assert csv_path.exists()
    assert json.loads(json_path.read_text())["aggregates"]["diameter"] == 6


def test_gen_expander_output_pinned(tmp_path, capsys):
    # graph file bytes and certificate keys (a file format) of lps(5,13)
    out = tmp_path / "g.txt"
    assert cli_main(["gen-expander", "--p", "5", "--q", "13", "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("(beta in [0.708000, 0.714977])")
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "7f3b21751bc47ce1a47dacbd58d693a57e101821bc807494cac839bfd0ada7b1")
    cert = json.loads((tmp_path / "g.txt.cert.json").read_text())
    assert sorted(cert) == ["beta", "beta_lo", "bipartite", "construction", "d", "diameter",
                            "girth", "n", "ramanujan_bound", "simple"]
    assert cert["construction"] == "lps"


@pytest.mark.parametrize("argv", [["--p", "5"], ["--q", "13"],
                                  ["--kind", "lps", "--p", "5", "--q", "13"]])
def test_gen_expander_takes_only_p_and_q(argv):
    with pytest.raises(ConfigError):
        build_parser().parse_args(["gen-expander", *argv, "--out", "g.txt"])


def test_cli_random_regular_spec_exit_1(capsys):
    rc = cli_main(["run-steiner-lb", "--graph", "regular:60,3,3", "--trials", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "regular:60,3,3" in err and err.count("\n") == 1


def test_cli_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "pipeline = steiner-lb\n"
        "graph = lps:5,13\n"
        "trials = 30\n"
        "seed = 6\n"
        f"csv = {tmp_path / 'rows.csv'}\n"
    )
    rc = cli_main(["run-steiner-lb", "--config", str(cfg_file), "--trials", "10"])
    assert rc == 0
    rows = (tmp_path / "rows.csv").read_text()
    assert len(rows.splitlines()) == 11  # header + overridden trial count
    # the config file's seed survives when no --seed flag is given
    cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=10,
                         seed=6, csv=str(tmp_path / "direct.csv"))
    run_experiment(cfg)
    assert (tmp_path / "direct.csv").read_text() == rows


def test_cli_oracle(tmp_path, capsys):
    rc = cli_main(["gen-instance", "--n", "9", "--seed", "2",
                   "--out", str(tmp_path / "m.txt")])
    assert rc == 0
    rc = cli_main(["oracle", "steiner", "--metric", str(tmp_path / "m.txt"),
                   "--terminals", "2,5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "opt_steiner" in out


@pytest.mark.parametrize("problem", ["steiner", "tsp"])
def test_cli_oracle_rejects_non_metric(tmp_path, capsys, problem):
    # d(0,2) = 5 > d(0,1) + d(1,2) = 2
    (tmp_path / "m.txt").write_text("3 0\n0 1 5\n1 0 1\n5 1 0\n")
    rc = cli_main(["oracle", problem, "--metric", str(tmp_path / "m.txt"),
                   "--terminals", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a metric" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "3\n0 1 2\n", "3 x\n"])
def test_cli_oracle_refuses_a_metric_file_without_its_header(tmp_path, capsys, text):
    (tmp_path / "m.txt").write_text(text)
    rc = cli_main(["oracle", "steiner", "--metric", str(tmp_path / "m.txt"),
                   "--terminals", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "first line must be 'n root'" in err
    assert err.count("\n") == 1

@pytest.mark.parametrize("problem", ["steiner", "tsp"])
@pytest.mark.parametrize("terminal", ["99", "-1"])
def test_cli_oracle_rejects_a_terminal_outside_the_metric(tmp_path, capsys, problem, terminal):
    assert cli_main(["gen-instance", "--n", "6", "--out", str(tmp_path / "m.txt")]) == 0
    capsys.readouterr()
    rc = cli_main(["oracle", problem, "--metric", str(tmp_path / "m.txt"),
                   "--terminals", f"2,{terminal}"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: terminal {terminal} is not a vertex of the 6-point metric\n"


def test_cli_transfer(tmp_path, capsys):
    doc = {"alpha": 2.0, "rho": {str(k): 0.5 * np.exp(-k) for k in range(1, 5)}}
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(doc))
    rc = cli_main(["transfer", "--witness", str(wfile)])
    assert rc == 0
    out = capsys.readouterr().out
    assert float(out.split("=")[1]) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("doc", [{"alpha": 1.0}, [1.0, {"1": 0.5}],
                                 {"alpha": "1", "rho": {}}, {"alpha": 1.0, "rho": {"1": None}}])
def test_cli_transfer_rejects_a_malformed_witness(tmp_path, capsys, doc):
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps(doc))
    assert cli_main(["transfer", "--witness", str(wfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'rho'" in err and err.count("\n") == 1


def test_cli_usage_error_exit_1(tmp_path):
    rc = cli_main(["run-steiner-lb", "--graph", "nonsense:x", "--trials", "1"])
    assert rc == 1


@pytest.mark.parametrize("argv, message", [
    (["gen-expander", "--p", "5", "--out", "g.txt"],
     "the following arguments are required: --q"),
    (["run-steiner-lb", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["gen-instance", "--n", "4", "--kind", "grid", "--out", "m.txt"],
     "argument --kind: invalid choice: 'grid'"),
])
def test_cli_argparse_errors_exit_1(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["gen-expander", "--help"]])
def test_cli_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: univlb")


@pytest.mark.parametrize("text, message", [
    ("", "missing header"),
    ("3 2\n0 1\n", "expected 2 edges, found 1"),
    ("3 1\n0 x\n", "invalid literal"),
    ("3 1\n0 3\n", "edge (0,3) out of range for n=3"),
])
def test_cli_bad_graph_file_exit_1(tmp_path, capsys, text, message):
    (tmp_path / "g.txt").write_text(text)
    rc = cli_main(["run-steiner-lb", "--graph", f"file:{tmp_path / 'g.txt'}", "--trials", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, key", [
    (["run-steiner-lb", "--graph", "lps:5,13", "--trials", "-3"], "trials"),
    (["run-dp-transfer", "--eps", "-0.5"], "eps"),
    (["run-universal", "--metrics", "-2"], "metrics"),
    (["run-tsp-lb", "--graph", "lps:5,13", "--solution-count", "0"], "solution_count"),
    (["run-dp-transfer", "--mechanisms", "-1"], "mechanisms"),
    (["run-tsp-lb", "--graph", "lps:5,13", "--t", "0"], "t"),
    (["run-tsp-lb", "--graph", "lps:5,13", "--blocks", "-4"], "blocks"),
    (["run-dp-transfer", "--universe", "0"], "universe"),
])
def test_cli_out_of_range_exit_1(argv, key, capsys):
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be >=") and err.count("\n") == 1


@pytest.mark.parametrize("line, message", [
    ("trees_per_metric = 0", "trees_per_metric must be >= 1"),
    ("max_terminals = 1", "max_terminals must be >= 2"),
    ("metric_size_min = 1", "metric_size_min must be >= 2"),
    ("metric_size_max = 20", "metric_size_max must be >= 32"),
    ("root = 0", "unknown config key 'root'"),
    ("gamma = 0.5", "unknown config key 'gamma'"),
    ("metric_kind = uniform", "unknown config key 'metric_kind'"),
])
def test_cli_config_file_bad_value_exit_1(tmp_path, capsys, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    assert cli_main(["run-universal", "--config", str(cfg_file), "--metrics", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    parser = build_parser()
    assert {argv[1] for argv in commands} == set(parser._subparsers._group_actions[0].choices)
    for argv in commands:
        assert argv[0] == "univlb"
        parser.parse_args(argv[1:])


def test_cli_exit_2_on_falsification(tmp_path, monkeypatch):
    import univlb.cli as cli_mod

    def boom(cfg):
        raise CertificateFalsification("synthetic failure for exit-code plumbing")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    rc = cli_main(["run-steiner-lb", "--graph", "lps:5,13", "--trials", "1"])
    assert rc == 2


def test_cli_report(tmp_path):
    cfg = RunConfig.make(pipeline="steiner-lb", graph="lps:5,13", trials=100,
                         seed=8, json=str(tmp_path / "r.json"))
    run_experiment(cfg)
    rc = cli_main(["report", "--json", str(tmp_path / "r.json"),
                   "--csv", str(tmp_path / "plot.csv")])
    assert rc == 0
    assert (tmp_path / "plot.csv").read_text().splitlines()[0] == "series,x,y,ci_lo,ci_hi"


def test_cli_audit_dp(tmp_path):
    from univlb.experiments import star_metric, suite_mechanism
    from univlb.privacy import write_mechanism
    from univlb.rng import stream

    m = star_metric(4)
    mech, _, _ = suite_mechanism(m, frozenset(range(1, 5)), 0.4, stream(19, 0))
    write_mechanism(mech, tmp_path / "mech.json")
    rc = cli_main(["audit-dp", "--mech", str(tmp_path / "mech.json"), "--eps", "0.4"])
    assert rc == 0
    rc = cli_main(["audit-dp", "--mech", str(tmp_path / "mech.json"), "--eps", "0.001"])
    assert rc == 1


@pytest.mark.parametrize("breakage, message", [
    (lambda doc: doc["table"].pop("5"), "no row 5"),
    (lambda doc: doc["table"]["3"].update(t9=0.0), "unknown solution 't9'"),
    (lambda doc: doc["table"].update({"16": doc["table"]["0"]}), "rows other than"),
    (lambda doc: doc.pop("universe"), "missing key 'universe'"),
    (lambda doc: doc["solutions"]["t0"].pop("kind"), "missing key 'kind'"),
    (lambda doc: doc["solutions"].update(t0={"kind": "tour", "root": 0, "order": [1, 2, 3, 4]}),
     "unknown solution kind 'tour'"),
    (lambda doc: doc["solutions"].update(t0={"kind": "paths", "root": 0,
                                             "paths": [[], [1, 0], [2, 0], [3, 0], [4, 0]]}),
     "unknown solution kind 'paths'"),
    (lambda doc: doc["solutions"]["t0"]["parent"].__setitem__(1, 9),
     "root and parents must be vertices 0..4"),
    (lambda doc: doc["solutions"]["t0"]["edge_cost"].pop(), "edge_cost has 4 entries"),
    (lambda doc: doc["solutions"]["t0"]["parent"].__setitem__(1, "0"),
     "root and parent entries must be integers"),
    (lambda doc: doc["solutions"]["t0"]["parent"].__setitem__(1, 0.0),
     "root and parent entries must be integers"),
    (lambda doc: doc["solutions"]["t0"].update(root=True),
     "root and parent entries must be integers"),
    (lambda doc: doc["solutions"]["t0"]["edge_cost"].__setitem__(1, "1"),
     "edge_cost entries must be numbers"),
    (lambda doc: doc.update(universe=5), "universe must be a list of integers"),
    (lambda doc: doc.update(universe=[[1], 2]), "universe must be a list of integers"),
    (lambda doc: doc.update(solutions=[]), "solutions and table JSON objects"),
    (lambda doc: doc.update(table=[]), "solutions and table JSON objects"),
    (lambda doc: doc["solutions"].update(t0=[]), "unknown solution kind None"),
    (lambda doc: doc["table"].update({"3": []}), "no row 3"),
    (lambda doc: doc["table"]["3"].update(t0=None), "row 3 gives 't0' a non-number"),
])
def test_cli_audit_dp_bad_file_exit_1(tmp_path, capsys, breakage, message):
    from univlb.experiments import star_metric, suite_mechanism
    from univlb.privacy import write_mechanism
    from univlb.rng import stream

    path = tmp_path / "mech.json"
    mech, _, _ = suite_mechanism(star_metric(4), frozenset(range(1, 5)), 0.4, stream(19, 0))
    write_mechanism(mech, path)
    doc = json.loads(path.read_text())
    breakage(doc)
    path.write_text(json.dumps(doc))
    assert cli_main(["audit-dp", "--mech", str(path), "--eps", "0.4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1



def test_cli_audit_dp_refuses_a_file_that_is_not_an_object(tmp_path, capsys):
    (tmp_path / "mech.json").write_text("[]")
    assert cli_main(["audit-dp", "--mech", str(tmp_path / "mech.json"), "--eps", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds one JSON object" in err and err.count("\n") == 1


def test_no_pipeline_or_cli_command_loads_scipy(tmp_path):
    # a fresh interpreter, so no other test has imported scipy yet: every
    # pipeline and every CLI command, the graph ones on lps(5,13)
    code = """
import json, sys
from univlb.cli import main
from univlb.experiments import star_metric, suite_mechanism
from univlb.privacy import write_mechanism
from univlb.rng import stream

runs = [
    ["run-steiner-lb", "--graph", "lps:5,13", "--trials", "20", "--oracle-cap", "2"],
    ["run-steiner-lb", "--graph", "lps:5,13", "--trials", "5", "--solution", "frt"],
    ["run-tsp-lb", "--graph", "lps:5,13", "--trials", "20", "--t", "2"],
    ["run-universal", "--metrics", "2"],
    ["run-dp-transfer", "--universe", "4", "--mechanisms", "2"],
]
for i, run in enumerate(runs):
    assert main(run + ["--json", f"r{i}.json"]) == 0
mech, _, _ = suite_mechanism(star_metric(4), frozenset(range(1, 5)), 0.4, stream(19, 0))
write_mechanism(mech, "mech.json")
with open("w.json", "w") as f:
    json.dump({"alpha": 2.0, "rho": {"1": 0.1, "2": 0.01}}, f)
for command in (
    ["gen-expander", "--p", "5", "--q", "13", "--out", "g.txt"],
    ["gen-instance", "--n", "6", "--out", "m.txt"],
    ["oracle", "steiner", "--metric", "m.txt", "--terminals", "2,5"],
    ["oracle", "tsp", "--metric", "m.txt", "--terminals", "2,5"],
    ["audit-dp", "--mech", "mech.json", "--eps", "0.4"],
    ["transfer", "--witness", "w.json"],
    ["report", "--json", "r0.json", "r2.json", "--csv", "plot.csv"],
    ["run-steiner-lb", "--graph", "file:g.txt", "--trials", "5"],
):
    assert main(command) == 0, command
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_package_module_imports_scipy():
    package = Path(__file__).resolve().parents[1] / "src" / "univlb"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 10
    for module in modules:
        text = module.read_text()
        assert re.search(r"^\s*(import|from)\s+scipy\b", text, re.MULTILINE) is None, module


def test_perfbench_traced_names_resolve():
    """Every function the benchmark's tracer rebinds exists in the package,
    with the leading parameters its counters read by position."""
    import importlib
    import importlib.util
    import inspect

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    resolved = {}
    for qual in tracer.TRACED:
        module_name, _, attr = qual.partition(".")
        obj = importlib.import_module(f"univlb.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), qual
        resolved[qual] = obj
    leading = {
        "metric.shortest_path_metric": [],  # its counter reads the result
        "adversary.block_alternation": ["sigma"],
        "oracles.steiner_exact": ["m", "X"],
        "privacy.dp_audit": ["mech", "eps", "distance"],
    }
    assert set(tracer.COUNTERS) == set(leading)
    for qual, names in leading.items():
        params = list(inspect.signature(resolved[qual]).parameters)
        assert params[:len(names)] == names, qual
