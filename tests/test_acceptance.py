"""Acceptance suite: every gate the package ships against, one test per
criterion, each printing a single PASS/FAIL line (run with ``pytest -s``).

The lower-bound gates are certificate-exact (any certificate failure aborts
the run); the asymptotic claims are checked as finite-size trends at fixed
seeds. Criterion 8 re-executes every CSV-producing run and compares bytes.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest

from univlb.expanders import lps_graph
from univlb.experiments import RunConfig, run_experiment
from univlb.metric import random_euclidean_metric, shortest_path_metric
from univlb.oracles import steiner_exact, steiner_table, tsp_exact
from univlb.privacy import (
    LowerBoundWitness,
    MechanismTable,
    dp_audit,
    exponential_mechanism,
    transfer_lower_bound,
)
from univlb.rng import stream
from univlb.solutions import SpanningTree
from univlb.walks import confinement_probability

from oracles_brute import connected_graphs, rooted_steiner_brute, steiner_brute, tsp_brute

SEED = 20250808

# Named configs double as the criterion-8 reproducibility manifest.
RUNS: dict[str, dict] = {
    "steiner-cert": dict(pipeline="steiner-lb", graph="lps:5,13", solution="spt",
                         trials=25000, t="auto", seed=SEED),
    "tsp-cert-t2": dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                        solution_count=64, trials=10000, t=2, seed=SEED),
    "tsp-cert-t3": dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                        solution_count=64, trials=10000, t=3, seed=SEED),
    "tsp-cert-t4": dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                        solution_count=64, trials=10000, t=4, seed=SEED),
    # lps(5,61) has diameter 9, so walks can start 3t = 9 apart at t = 3
    "tsp-cert-t3-q61": dict(pipeline="tsp-lb", graph="lps:5,61", solution="random-tour",
                            solution_count=8, trials=20000, t=3, blocks=4, seed=SEED),
    "goodwalk-q13": dict(pipeline="steiner-lb", graph="lps:41,13", solution="spt",
                         trials=10000, t=64, seed=SEED),
    "goodwalk-q17": dict(pipeline="steiner-lb", graph="lps:41,17", solution="spt",
                         trials=10000, t=64, seed=SEED),
    "goodwalk-q29": dict(pipeline="steiner-lb", graph="lps:41,29", solution="spt",
                         trials=10000, t=64, seed=SEED),
    "trend-q29": dict(pipeline="steiner-lb", graph="lps:5,29", solution="spt",
                      trials=4000, t="auto", seed=SEED),
    "trend-q41": dict(pipeline="steiner-lb", graph="lps:5,41", solution="spt",
                      trials=4000, t="auto", seed=SEED),
    "trend-q61": dict(pipeline="steiner-lb", graph="lps:5,61", solution="spt",
                      trials=4000, t="auto", seed=SEED),
    "universal": dict(pipeline="universal-upper", metrics=100, trees_per_metric=10,
                      terminals_per_metric=3, max_terminals=10,
                      metric_size_min=32, metric_size_max=64, seed=SEED),
    "dp-suite": dict(pipeline="dp-transfer", universe=10, mechanisms=100,
                     eps=0.5, seed=SEED),
}


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    """Run a named config once per session, caching report and CSV bytes."""
    base = tmp_path_factory.mktemp("acceptance")
    cache: dict[str, tuple] = {}

    def run(name: str):
        if name not in cache:
            csv_path = base / f"{name}.csv"
            cfg = RunConfig.make(csv=str(csv_path), **RUNS[name])
            report = run_experiment(cfg)
            cache[name] = (report, csv_path.read_bytes())
        return cache[name]

    return run


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_girth_certificate_exactness(runner):
    start = time.perf_counter()
    report, _ = runner("steiner-cert")
    elapsed = time.perf_counter() - start
    agg = report.aggregates
    girth = agg["girth"]
    good_rows = [r for r in report.rows if r["good"]]
    violations = [r for r in good_rows if 6.0 * r["lhs"] < r["x_size"] * girth]
    ok = (
        agg["certified_samples"] >= 10_000
        and not violations
        and elapsed <= 300.0
    )
    _verdict(
        "1-girth-certificate", ok,
        f"certified={agg['certified_samples']}, headline_violations={len(violations)}, "
        f"girth={girth}, {elapsed:.0f}s",
    )


# The fewest qualifying samples each tsp-lb config must certify: 50 is about
# three standard deviations under the 78 of tsp-cert-t3-q61 at SEED (263 at
# t=2). lps(5,13) has diameter 7, so at t=3 and t=4 no two walks start 3t
# apart: those configs are vacuous and must report so.
TSP_CERT_MIN = {"tsp-cert-t2": 50, "tsp-cert-t3": 0, "tsp-cert-t4": 0, "tsp-cert-t3-q61": 50}


def test_criterion_2_tsp_certificate_exactness(runner):
    start = time.perf_counter()
    details = []
    ok = True
    for name, least in TSP_CERT_MIN.items():
        report, _ = runner(name)
        agg = report.aggregates
        qualifying = [r for r in report.rows if r["e1"] and r["e2"]]
        bad = [r for r in qualifying if r["lhs"] < r["rhs"]]
        ok = (ok and not bad and len(qualifying) >= least
              and agg["vacuous"] == (least == 0) and not (agg["vacuous"] and qualifying))
        details.append(f"{agg['label']} t={agg['t']}: qualifying={len(qualifying)} "
                       f"(min {least}{', vacuous' if agg['vacuous'] else ''}), "
                       f"violations={len(bad)}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300.0
    _verdict("2-tsp-certificate", ok, "; ".join(details) + f", {elapsed:.0f}s")


CONFINEMENT_SUITE = ((0.10, 4), (0.25, 6), (1.0 / 3.0, 8), (1.0 / math.sqrt(6), 6))


def test_criterion_3_event_frequencies(runner):
    freq_details = []
    ok = True
    for q in (13, 17, 29):
        report, _ = runner(f"goodwalk-q{q}")
        freq = report.aggregates["good_walk_frequency"]
        ok = ok and freq >= 0.95
        freq_details.append(f"q={q}: good={freq:.4f}")

    # Exact confinement probabilities against the walk bound (alpha + beta)^t,
    # beta the certified upper end; the subsets are drawn as before, no walk is.
    conf_details = []
    for q in (13, 17, 29):
        g, cert = lps_graph(41, q)
        ok = ok and cert.beta_lo <= cert.beta <= cert.ramanujan_bound
        slack = math.inf
        for case, (alpha, t) in enumerate(CONFINEMENT_SUITE):
            mask = np.zeros(g.n, dtype=bool)
            mask[stream(SEED, 60, q, case).choice(g.n, size=max(1, round(alpha * g.n)),
                                                  replace=False)] = True
            bound = (mask.mean() + cert.beta) ** t
            slack = min(slack, bound - confinement_probability(g, mask, t))
        ok = ok and slack >= 0
        conf_details.append(f"q={q}: beta in [{cert.beta_lo:.7f}, {cert.beta:.7f}], "
                            f"min bound-exact={slack:.3g}")
    _verdict("3-event-frequencies", ok, "; ".join(freq_details + conf_details))


def test_criterion_4_lower_bound_trend(runner):
    medians = []
    all_rows = []
    for q in (29, 41, 61):
        report, _ = runner(f"trend-q{q}")
        medians.append((q, report.aggregates["ratio_median"]))
        all_rows.extend(report.rows)
    increasing = all(a[1] < b[1] for a, b in zip(medians, medians[1:]))
    per_size = [r["ratio"] / r["x_size"] for r in all_rows if r["x_size"] > 0]
    c_fit = min(per_size)
    ok = increasing and c_fit > 0
    _verdict(
        "4-lower-bound-trend", ok,
        "medians " + " -> ".join(f"{q}:{m:.4f}" for q, m in medians)
        + f", fitted c={c_fit:.4f}",
    )


def test_criterion_5_upper_bound_sandwich(runner):
    report, _ = runner("universal")
    agg = report.aggregates
    v = agg["violations"]
    mean_ratio = agg["mean_ratio"]
    stretch = agg["measured_stretch_max"]
    ok = (
        v["domination"] == 0
        and v["doubling"] == 0
        and v["contiguity"] == 0
        and v["cost_bound"] == 0
        and mean_ratio <= stretch
        and agg["max_ratio"] <= stretch + 1e-9
        and len(report.rows) >= 100
    )
    _verdict(
        "5-upper-bound-sandwich", ok,
        f"mean_ratio={mean_ratio:.3f} <= stretch={stretch:.3f}, violations={v}",
    )


def test_criterion_6_oracle_correctness():
    from univlb.graphs import Graph

    start = time.perf_counter()
    # (a) Dreyfus-Wagner vs superset-MST enumeration: every connected graph
    # on up to 6 vertices, every terminal set. One table per graph, root
    # last, holds OPT of every rooted set in the root's column (unit-cost
    # graph metrics are integral, so reading it there is exact). The brute
    # force takes the MST of every rooted vertex set once, then a superset
    # minimum. Both sides add integers, so the column must equal it exactly.
    # On every 100th graph, each set is also checked exactly against
    # steiner_exact and the per-set brute force.
    graphs_checked = 0
    sets_checked = 0
    slice_checked = 0
    for n in range(2, 7):
        for edges in connected_graphs(n):
            m = shortest_path_metric(Graph(n=n, edges=edges), 0)
            got = steiner_table(m, [*range(1, n), 0])[:, 0]
            want = rooted_steiner_brute(m.dist, n)
            assert np.array_equal(got[1:len(want)], want[1:]), edges
            sets_checked += len(want) - 1
            if graphs_checked % 100 == 0:
                for mask in range(1, 1 << (n - 1)):
                    x = {v + 1 for v in range(n - 1) if mask >> v & 1}
                    assert steiner_exact(m, x) == got[mask], (edges, x)
                    assert steiner_brute(m.dist, n, x | {0}) == want[mask], (edges, x)
                    slice_checked += 1
            graphs_checked += 1

    # (b) Held-Karp vs permutation enumeration, plus the doubling sandwich.
    for i in range(100):
        rng = stream(SEED, 70, i)
        m = random_euclidean_metric(int(rng.integers(10, 17)), rng)
        k = int(rng.integers(2, 9))
        x = set(int(v) for v in rng.choice(range(1, m.n), size=k, replace=False))
        hk = tsp_exact(m, x)
        brute = tsp_brute(m.dist, 0, x)
        assert hk == pytest.approx(brute, rel=1e-9)
        st_opt = steiner_exact(m, x)
        assert st_opt <= hk + 1e-9 <= 2 * st_opt + 2e-9
    elapsed = time.perf_counter() - start
    ok = (graphs_checked, sets_checked) == (27_475, 839_023) and elapsed <= 600.0
    _verdict(
        "6-oracle-correctness", ok,
        f"{graphs_checked} graphs, {sets_checked} terminal sets "
        f"({slice_checked} also per set), 100 tsp instances, {elapsed:.0f}s",
    )


def test_criterion_7_dp_machinery(runner):
    # (a) 100 random cost tables at |U| = 8 pass at construction eps.
    universe = frozenset(range(1, 9))
    dummy = SpanningTree(root=0, parent=tuple([0] * 9),
                         edge_cost=(0.0,) + (1.0,) * 8)
    sols = {sid: dummy for sid in ("a", "b", "c")}
    sets = 1 << len(universe)
    audit_fails = 0
    for i in range(100):
        rng = stream(SEED, 80, i)
        cost = rng.random((sets, len(sols)))  # row X (a mask), column sid
        eps = float(rng.uniform(0.1, 2.0))
        mech = exponential_mechanism(universe, sols, cost, eps)
        if not dp_audit(mech, eps).passed:
            audit_fails += 1

    # (b) the X-independent mechanism is 0-DP.
    const = MechanismTable(universe=universe, solutions={"a": dummy},
                           probs=np.ones((sets, 1)))
    zero_dp = dp_audit(const, 0.0).passed

    # (c) the transfer threshold is exact on the closed-form witness.
    w = LowerBoundWitness(alpha=1.0, rho={k: 0.5 * math.exp(-k) for k in range(1, 9)})
    eps0_exact = transfer_lower_bound(w)

    ok = (
        audit_fails == 0
        and zero_dp
        and eps0_exact == pytest.approx(1.0, rel=1e-12)
    )
    _verdict(
        "7-dp-machinery-part1", ok,
        f"random-table audit failures={audit_fails}, zero-dp={zero_dp}, "
        f"eps0={eps0_exact}",
    )


def test_criterion_7_dp_transfer_suite(runner):
    report, _ = runner("dp-suite")
    agg = report.aggregates
    beats = [r["prob_beat"] for r in report.rows if r["prob_beat"] is not None]
    ok = (
        agg["audit_failures"] == 0
        and agg["transfer_failures"] == 0
        and agg["transfer_applicable"] == 100
        and all(p <= 0.5 + 1e-12 for p in beats)
    )
    _verdict(
        "7-dp-transfer-suite", ok,
        f"audited=100, applicable={agg['transfer_applicable']}, "
        f"max prob_beat={max(beats):.4f}",
    )


def test_criterion_8_reproducibility(runner, tmp_path):
    mismatches = []
    for name in RUNS:
        _, first_bytes = runner(name)
        csv_path = tmp_path / f"{name}-rerun.csv"
        cfg = RunConfig.make(csv=str(csv_path), **RUNS[name])
        run_experiment(cfg)
        if csv_path.read_bytes() != first_bytes:
            mismatches.append(name)
    _verdict(
        "8-reproducibility", not mismatches,
        f"{len(RUNS)} runs re-executed byte-identically"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


# One small config per pipeline and the sha256 of its CSV at SEED. A change
# that means to keep every number must keep these bytes; one that changes
# them on purpose re-pins them and says why.
PINNED: dict[str, tuple[dict, str]] = {
    "tsp-lb": (dict(pipeline="tsp-lb", graph="lps:5,13", solution="random-tour",
                    solution_count=64, trials=300, t=2),
               "543d17b0d2e194d1543f5befddfc510c7e6536f17e46973c6e93a0b8d26a05fd"),
    "steiner-lb": (dict(pipeline="steiner-lb", graph="lps:5,13", solution="spt",
                        trials=2000, t="auto"),
                   "7dba1f357d002dcfb4207f90d450f9a4a5727f592f76bfaee70f647c1ad2a8c0"),
    "universal-upper": (dict(pipeline="universal-upper", metrics=5, trees_per_metric=10,
                             terminals_per_metric=3, max_terminals=10,
                             metric_size_min=32, metric_size_max=64),
                        "7bcf5633ae0ad5ab6e0ae28852c17af9f0355615e10682c7a832c208329ccb18"),
    "dp-transfer": (dict(pipeline="dp-transfer", universe=10, mechanisms=5, eps=0.5),
                    "99e47fbdcba6a73238b20c52131d52cf6ac8b659cfe3fd0f3560625fbc32ca3b"),
}


@pytest.mark.parametrize("pipeline", sorted(PINNED))
def test_csv_sha256_pinned(pipeline, tmp_path):
    config, sha256 = PINNED[pipeline]
    csv_path = tmp_path / "rows.csv"
    run_experiment(RunConfig.make(csv=str(csv_path), seed=SEED, **config))
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == sha256
