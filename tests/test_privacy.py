from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb import experiments, privacy, solutions
from univlb.adversary import CertificateFalsification
from univlb.experiments import (
    ConfigError,
    RunConfig,
    run_experiment,
    star_metric,
    suite_mechanism,
)
from univlb.graphs import Graph
from univlb.metric import MetricSpace, shortest_path_metric
from univlb.oracles import steiner_exact
from univlb.privacy import (
    RATIO_RTOL,
    LowerBoundWitness,
    MechanismError,
    MechanismTable,
    all_subsets,
    dp_audit,
    empty_support_check,
    exponential_mechanism,
    neighbor_pairs,
    read_mechanism,
    transfer_check,
    transfer_lower_bound,
    write_mechanism,
)
from univlb.rng import stream
from univlb.solutions import SpanningTree, project_tree


def _const_tree(n: int = 2) -> SpanningTree:
    return SpanningTree(root=0, parent=tuple([0] * n), edge_cost=(0.0,) + (1.0,) * (n - 1))


def _uniform_mech(universe: frozenset[int], ids: list[str]) -> MechanismTable:
    sols = {sid: _const_tree(len(universe) + 1) for sid in ids}
    probs = np.full((1 << len(universe), len(ids)), 1.0 / len(ids))
    return MechanismTable(universe=universe, solutions=sols, probs=probs)


# The dict-of-frozensets audit and exponential mechanism that the array
# versions replaced, kept as the slow reference.

def _reference_audit(table, universe, eps, distance):
    bound = math.exp(distance * eps)
    subsets = all_subsets(universe)
    worst = 1.0
    for i, a in enumerate(subsets):
        for b in subsets[i + 1:]:
            if len(a ^ b) != distance:
                continue
            for sid in set(table[a]) | set(table[b]):
                pa = table[a].get(sid, 0.0)
                pb = table[b].get(sid, 0.0)
                if pa == 0.0 and pb == 0.0:
                    continue
                if pa == 0.0 or pb == 0.0:
                    return False, math.inf
                worst = max(worst, pa / pb, pb / pa)
    return worst <= bound * (1.0 + RATIO_RTOL), worst


def _reference_exponential(universe, ids, cost, eps):
    sens = 0.0
    for X in all_subsets(universe):
        for v in universe - X:
            for sid in ids:
                sens = max(sens, abs(cost[(X | {v}, sid)] - cost[(X, sid)]))
    sens = max(sens, 1e-12)
    table = {}
    for X in all_subsets(universe):
        exponents = {sid: -eps * cost[(X, sid)] / (2.0 * sens) for sid in ids}
        shift = max(exponents.values())
        weights = {sid: math.exp(e - shift) for sid, e in exponents.items()}
        total = sum(weights.values())
        table[X] = {sid: w / total for sid, w in weights.items()}
    return table


@st.composite
def terminal_tables(draw):
    """A universe of 1-6 scattered vertices and a (2^|U|, 1-4) table of small
    integer weights, zeros included, each row normalised."""
    universe = frozenset(draw(st.sets(st.integers(0, 30), min_size=1, max_size=6)))
    shape = (1 << len(universe), draw(st.integers(1, 4)))
    flat = draw(st.lists(st.integers(0, 3), min_size=shape[0] * shape[1],
                         max_size=shape[0] * shape[1]))
    weights = np.array(flat, dtype=np.float64).reshape(shape)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return universe, weights / weights.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(terminal_tables(), st.sampled_from([0.0, 0.3, 1.5]), st.integers(1, 2))
def test_audit_matches_reference(drawn, eps, distance):
    universe, probs = drawn
    ids = [f"s{j}" for j in range(probs.shape[1])]
    mech = MechanismTable(universe=universe, solutions={sid: _const_tree() for sid in ids},
                          probs=probs)
    table = {X: {sid: p for sid, p in zip(ids, row) if p > 0}
             for X, row in zip(all_subsets(universe), probs.tolist())}
    report = dp_audit(mech, eps, distance)
    assert (report.passed, report.worst_ratio) == _reference_audit(table, universe, eps,
                                                                   distance)


@settings(max_examples=100, deadline=None)
@given(terminal_tables(), st.sampled_from([0.0, 0.3, 1.5]))
def test_exponential_mechanism_matches_reference(drawn, eps):
    # reuse the drawn weights as costs in tenths, so sensitivities stay >= 0.1
    universe, weights = drawn
    cost = np.round(weights * 20) * 0.1
    ids = [f"s{j}" for j in range(cost.shape[1])]
    cost_dict = {(X, sid): c for X, row in zip(all_subsets(universe), cost.tolist())
                 for sid, c in zip(ids, row)}
    ref = _reference_exponential(universe, ids, cost_dict, eps)
    mech = exponential_mechanism(universe, {sid: _const_tree() for sid in ids}, cost, eps)
    expected = np.array([[ref[X][sid] for sid in ids] for X in all_subsets(universe)])
    np.testing.assert_array_max_ulp(mech.probs, expected, maxulp=4)


def test_x_independent_mechanism_is_zero_dp():
    mech = _uniform_mech(frozenset({1, 2, 3}), ["a", "b"])
    report = dp_audit(mech, 0.0)
    assert report.passed
    assert report.worst_ratio == 1.0


def test_two_candidate_closed_form():
    # oracle first: explicit softmax ratio for gap-1 costs at sensitivity 1
    eps = 0.8
    w0 = math.exp(0.0)
    w1 = math.exp(-eps / 2.0)
    expected_ratio = (w0 / (w0 + w1)) / (w1 / (w0 + w1))
    assert expected_ratio == pytest.approx(math.exp(eps / 2.0), rel=1e-12)

    universe = frozenset({1})
    cost = np.array([[0.0, 1.0],   # X = {}
                     [1.0, 0.0]])  # X = {1}
    sols = {"a": _const_tree(), "b": _const_tree()}
    mech = exponential_mechanism(universe, sols, cost, eps)
    report = dp_audit(mech, eps)
    assert report.passed
    assert report.worst_ratio == pytest.approx(math.exp(eps / 2.0), rel=1e-12)


def test_zero_eps_mechanism_uniform():
    universe = frozenset({1, 2})
    sols = {"a": _const_tree(3), "b": _const_tree(3)}
    cost = np.array([[len(X) * 1.0, len(X) * 3.0] for X in all_subsets(universe)])
    mech = exponential_mechanism(universe, sols, cost, 0.0)
    assert mech.probs.tolist() == [[0.5, 0.5]] * 4


def test_zero_probability_neighbor_fails_all_eps():
    universe = frozenset({1})
    sols = {"a": _const_tree(), "b": _const_tree()}
    mech = MechanismTable(universe=universe, solutions=sols,
                          probs=[[1.0, 0.0], [0.5, 0.5]])
    for eps in (1e9, 1e400):  # an infinite bound still refuses p/0
        report = dp_audit(mech, eps)
        assert not report.passed
        assert report.worst_ratio == math.inf
        assert report.witness_pair == (frozenset(), frozenset({1}))
        assert report.witness_solution == "b"


def test_unnormalized_rejected():
    universe = frozenset({4, 9})
    sols = {"a": _const_tree(), "b": _const_tree()}
    good = [[0.5, 0.5]] * 4
    for mask, row, message in ((2, [0.7, 0.0], r"X=\[9\] sums to 0.7"),
                               (1, [1.5, -0.5], r"X=\[4\] is negative"),
                               (3, [math.nan, 1.0], r"X=\[4, 9\] sums to nan")):
        probs = np.array(good)
        probs[mask] = row
        with pytest.raises(MechanismError, match=message):
            MechanismTable(universe=universe, solutions=sols, probs=probs)
    with pytest.raises(MechanismError, match="shape"):
        MechanismTable(universe=universe, solutions=sols, probs=good[:3])


def test_probs_read_only_copy():
    probs = np.full((2, 1), 1.0)
    mech = MechanismTable(universe=frozenset({1}), solutions={"a": _const_tree()},
                          probs=probs)
    probs[0, 0] = 0.0  # the caller's array stays writable and apart
    assert mech.probs.tolist() == [[1.0], [1.0]]
    with pytest.raises(ValueError):
        mech.probs[0, 0] = 0.0


def test_random_cost_tables_pass_at_construction_eps():
    universe = frozenset(range(1, 7))
    ids = ["a", "b", "c"]
    sols = {sid: _const_tree(7) for sid in ids}
    for trial in range(25):
        rng = stream(13, trial)
        cost = rng.random((1 << len(universe), len(ids)))  # row X, column sid
        eps = float(rng.uniform(0.1, 2.0))
        mech = exponential_mechanism(universe, sols, cost, eps)
        assert dp_audit(mech, eps).passed


def test_group_privacy_distance_two_audit():
    universe = frozenset(range(1, 7))
    ids = ["a", "b"]
    sols = {sid: _const_tree(7) for sid in ids}
    for trial in range(10):
        rng = stream(14, trial)
        cost = rng.random((1 << len(universe), len(ids)))
        eps = 0.5
        mech = exponential_mechanism(universe, sols, cost, eps)
        assert dp_audit(mech, eps, distance=1).passed
        # distance-2 pairs satisfy the exp(2 eps) bound; the audit applies
        # exp(2 eps'), so just below eps' = ln(worst) / 2 it fails
        two = dp_audit(mech, eps, distance=2)
        assert two.passed
        assert not dp_audit(mech, math.log(two.worst_ratio) / 2 * 0.999, distance=2).passed


def test_neighbor_pairs_counts():
    a, b = neighbor_pairs(3, 1)
    assert len(a) == 3 * 4  # each of 8 subsets has 3 neighbors, halved
    for size in range(5):
        for distance in range(4):
            a, b = neighbor_pairs(size, distance)
            brute = [(x, y) for x in range(1 << size) for y in range(x + 1, 1 << size)
                     if (x ^ y).bit_count() == distance]
            assert sorted(zip(a.tolist(), b.tolist())) == brute


def test_empty_support_check():
    universe = frozenset({1, 2, 3})
    good = _uniform_mech(universe, ["a"])
    assert empty_support_check(good) == (True, None)

    small = _const_tree(3)  # spans 0..2, misses vertex 3
    bad = MechanismTable(universe=universe, solutions={"s": small}, probs=np.ones((8, 1)))
    assert empty_support_check(bad) == (False, "s")
    # a small tree is harmless while the empty set gives it no mass
    probs = np.tile([0.0, 1.0], (8, 1))
    probs[1:] = 0.5
    mixed = MechanismTable(universe=universe, probs=probs,
                           solutions={"s": small, "a": _const_tree(4)})
    assert empty_support_check(mixed) == (True, None)


def test_transfer_threshold_values():
    w = LowerBoundWitness(alpha=3.0, rho={k: 0.5 * math.exp(-k) for k in range(1, 8)})
    assert transfer_lower_bound(w) == pytest.approx(1.0, rel=1e-12)

    flat = LowerBoundWitness(alpha=3.0, rho={k: 0.5 for k in range(1, 5)})
    assert transfer_lower_bound(flat) == pytest.approx(0.0, abs=1e-12)

    with pytest.raises(ValueError):
        transfer_lower_bound(LowerBoundWitness(alpha=1.0, rho={}))


def test_rho_must_be_non_increasing():
    with pytest.raises(ValueError):
        LowerBoundWitness(alpha=1.0, rho={1: 0.1, 2: 0.4})


def test_transfer_end_to_end():
    m = star_metric(8)
    universe = frozenset(range(1, 9))
    for i in range(6):
        mech, cost, witness = suite_mechanism(m, universe, 0.5, stream(16, i))
        assert dp_audit(mech, 0.5).passed
        eps0 = transfer_lower_bound(witness)
        assert eps0 == pytest.approx(math.log(2.0), rel=1e-6)
        chk = transfer_check(mech, cost, witness, 0.5,
                             opt_fn=lambda X: steiner_exact(m, X))
        assert chk.ok
        assert chk.prob_beat <= chk.bound <= 0.5 + 1e-12


def test_transfer_witness_above_its_rho_is_falsified():
    # the empty-input distribution is uniform over 4 trees, so every singleton
    # is beaten with probability 1/4 > rho(1) = 0.1
    m = star_metric(4)
    mech, cost, witness = suite_mechanism(m, frozenset(range(1, 5)), 0.5, stream(16, 0))
    assert witness.rho[1] == pytest.approx(0.25)
    false_witness = LowerBoundWitness(alpha=witness.alpha, rho={1: 0.1}, sets=witness.sets)
    with pytest.raises(CertificateFalsification, match="rho bound"):
        transfer_check(mech, cost, false_witness, 0.5, opt_fn=lambda X: steiner_exact(m, X))


def test_suite_cost_table_is_the_tree_projections():
    # every universe size the suite runs at, on the star and on a cycle with
    # vertices off the universe, so tree edges cost more than 2 and some
    # vertices hold no item
    for size in range(1, 11):
        universe = frozenset(range(1, size + 1))
        cycle = Graph(n=size + 3, edges=[(v, (v + 1) % (size + 3)) for v in range(size + 3)])
        for m in (star_metric(size), shortest_path_metric(cycle, 0)):
            for i in range(3):
                mech, cost, _ = suite_mechanism(m, universe, 0.5, stream(18, size, i))
                expected = [[project_tree(tree, X) for tree in mech.solutions.values()]
                            for X in all_subsets(universe)]
                assert cost.dtype == np.float64 and cost.tolist() == expected


def test_transfer_check_reads_the_cost_table_only(monkeypatch):
    m = star_metric(6)
    universe = frozenset(range(1, 7))
    mech, cost, witness = suite_mechanism(m, universe, 0.5, stream(16, 1))
    calls = []
    real = solutions.project_tree

    def counting(t, X):
        calls.append(X)
        return real(t, X)

    for module in (solutions, experiments):
        monkeypatch.setattr(module, "project_tree", counting)
    chk = transfer_check(mech, cost, witness, 0.5, opt_fn=lambda X: steiner_exact(m, X))
    assert calls == []
    # the same sum, re-projecting every tree on the chosen set
    X = chk.witness_set
    row = mech.probs[1 << sorted(universe).index(next(iter(X)))]
    bar = witness.alpha * steiner_exact(m, X)
    assert chk.prob_beat == sum(p for tree, p in zip(mech.solutions.values(), row.tolist())
                                if real(tree, X) <= bar)


def test_transfer_check_refuses_inputs_off_the_table():
    m = star_metric(4)
    mech, cost, witness = suite_mechanism(m, frozenset(range(1, 5)), 0.5, stream(16, 2))
    opt = lambda X: steiner_exact(m, X)  # noqa: E731
    with pytest.raises(MechanismError, match="cost table has shape"):
        transfer_check(mech, cost[:, :-1], witness, 0.5, opt_fn=opt)
    outside = LowerBoundWitness(alpha=1.0, rho={1: 1.0}, sets=(frozenset({9}),))
    with pytest.raises(MechanismError, match=r"not defined on X=\[9\]"):
        transfer_check(mech, cost, outside, 0.5, opt_fn=opt)


def test_dp_transfer_solves_and_projects_no_set_alone(monkeypatch):
    # the cost table is one pass over subtree masks and the optima one
    # Dreyfus-Wagner table per run: no terminal set is listed, projected or
    # solved on its own
    calls = []

    def counting(name, real):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for module, name in ((privacy, "all_subsets"), (solutions, "project_tree"),
                         (experiments, "project_tree"), (experiments, "steiner_exact"),
                         (experiments, "steiner_table")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = run_experiment(RunConfig.make(pipeline="dp-transfer", universe=5, mechanisms=3))
    assert calls == ["steiner_table"]
    assert report.aggregates["transfer_applicable"] == 3


def test_suite_mechanism_refuses_fractional_tree_edges():
    star = star_metric(4)
    dist = star.dist.astype(np.float64)
    dist[1:, 1:] *= 1.25  # leaves 2.5 apart: every detour through a hub is fractional
    m = MetricSpace(n=star.n, dist=dist, root=0)
    with pytest.raises(ConfigError, match="integral tree edges") as exc:
        suite_mechanism(m, frozenset(range(1, 5)), 0.5, stream(21))
    assert "\n" not in str(exc.value)


def test_mechanism_file_roundtrip(tmp_path):
    m = star_metric(4)
    universe = frozenset(range(1, 5))
    mech, _, _ = suite_mechanism(m, universe, 0.4, stream(17, 0))
    path = tmp_path / "mech.json"
    write_mechanism(mech, path)
    back = read_mechanism(path)
    assert back.universe == mech.universe
    assert list(back.solutions) == list(mech.solutions)
    for sid, tree in mech.solutions.items():
        assert back.solutions[sid].root == tree.root
        assert np.array_equal(back.solutions[sid].parent, tree.parent)
        assert np.array_equal(back.solutions[sid].edge_cost, tree.edge_cost)
    assert np.array_equal(back.probs, mech.probs)  # repr round-trips exactly
    assert dp_audit(back, 0.4).passed


def test_mechanism_file_bit_order(tmp_path):
    # bit i of a row key is the i-th smallest universe element
    universe = frozenset({7, 3})
    probs = np.array([[1.0, 0.0], [0.75, 0.25], [0.5, 0.5], [0.0, 1.0]])
    mech = MechanismTable(universe=universe, probs=probs,
                          solutions={"a": _const_tree(8), "b": _const_tree(8)})
    write_mechanism(mech, tmp_path / "mech.json")
    doc = json.loads((tmp_path / "mech.json").read_text())
    assert doc["table"]["1"] == {"a": 0.75, "b": 0.25}  # X = {3}
    assert doc["table"]["2"] == {"a": 0.5, "b": 0.5}    # X = {7}
    back = read_mechanism(tmp_path / "mech.json")
    assert np.array_equal(back.probs, probs)
