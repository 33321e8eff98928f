from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb import experiments
from univlb.adversary import (
    CertificateFalsification,
    PreconditionError,
    SteinerAdversaryConfig,
    TspAdversaryConfig,
    block_alternation,
    check_separation,
    is_good_walk,
    steiner_certificate,
    tsp_certificate,
)
from univlb.experiments import RunConfig, run_experiment
from univlb.graphs import Graph
from univlb.metric import MetricSpace, shortest_path_metric
from univlb.rng import stream
from univlb.solutions import PathCollection, TourOrder, bfs_tree, tree_to_path_collection
from univlb.walks import random_walk

from kernels_ref import first_edges_ref, project_paths_ref, project_tour_ref


def _walk(verts) -> np.ndarray:
    return np.array(verts, dtype=np.int64)


def _collection(n: int, first: dict[int, int]) -> PathCollection:
    """Paths on n + 1 vertices to the root n: v steps to ``first[v]`` when
    given, else straight to the root, which no walk below visits. The first
    edges the walks can traverse are then exactly ``first``'s."""
    return PathCollection(root=n, paths=tuple(
        (v, first[v], n) if v in first else (v, n) for v in range(n)) + ((),))


def test_first_edge_set_examples(star4):
    p = tree_to_path_collection(bfs_tree(star4, 0))
    assert p.first_steps.tolist() == [-1, 0, 0, 0]
    assert first_edges_ref(p) == frozenset({(0, 1), (0, 2), (0, 3)})


def test_first_edge_set_tree_parents(petersen):
    t = bfs_tree(petersen, 0)
    p = tree_to_path_collection(t)
    assert p.first_steps.tolist() == [-1, *t.parent[1:]]
    assert not p.first_steps.flags.writeable
    assert len(first_edges_ref(p)) == petersen.n - 1


def test_good_walk_thresholds():
    cfg = SteinerAdversaryConfig(t=8)
    p = _collection(9, {0: 1})
    # zero first edges walked, all distinct -> good
    w = _walk(range(9))
    good, bad, distinct = is_good_walk(w, _collection(9, {}), cfg)
    assert good and bad == 0 and distinct == 9

    # two traversals of a first edge exceed 8/8 = 1
    w = _walk([0, 1, 0, 1, 2, 3, 4, 5, 6])
    good, bad, _ = is_good_walk(w, p, cfg)
    assert bad == 3 and not good

    # boundary: exactly 1 bad edge and exactly 4 distinct is still good
    w = _walk([0, 1, 2, 1, 2, 1, 2, 3, 2])
    good, bad, distinct = is_good_walk(w, p, cfg)
    assert bad == 1 and distinct == 4
    assert good


def test_multiset_bad_edge_counting():
    cfg = SteinerAdversaryConfig(t=4, bad_edge_fraction=0.5)
    # the first edge of 1 is (1, 0): steps along it count from either end
    p = _collection(2, {1: 0})
    w = _walk([0, 1, 0, 1, 0])  # traverses (0,1) four times
    good, bad, _ = is_good_walk(w, p, cfg)
    assert bad == 4
    assert not good


def test_steiner_certificate_on_good_walks(lps_5_13):
    g, cert = lps_5_13
    cfg = SteinerAdversaryConfig(t=cert.girth // 3)
    paths = tree_to_path_collection(bfs_tree(g, 0))
    checked = 0
    i = 0
    while checked < 400:
        w = random_walk(g, cfg.t, stream(2, i))
        i += 1
        good, _, _ = is_good_walk(w, paths, cfg)
        if not good:
            continue
        cert_res = steiner_certificate(paths, w, cert.girth, cfg)
        assert cert_res.holds
        assert cert_res.witness["stub_overlap"] is None
        x_size = cert_res.witness["x_size"]
        assert 6 * cert_res.lhs >= x_size * cert.girth
        assert cert_res.witness["x_prime_size"] >= x_size / 2
        checked += 1


def test_steiner_certificate_requires_good_walk(lps_5_13):
    g, cert = lps_5_13
    cfg = SteinerAdversaryConfig(t=cert.girth // 3)
    paths = tree_to_path_collection(bfs_tree(g, 0))
    # a walk straight along tree edges is all bad edges
    v = 17
    t = bfs_tree(g, 0)
    w = _walk([v, t.parent[v], t.parent[t.parent[v]]])
    with pytest.raises(PreconditionError):
        steiner_certificate(paths, w, cert.girth, cfg)


def test_steiner_certificate_degenerate_empty_x_prime():
    # tiny graph where the whole walk rides F: X' empty, bound 0, holds
    g = Graph(n=3, edges=((0, 1), (1, 2), (2, 0)))
    paths = tree_to_path_collection(bfs_tree(g, 0))
    cfg = SteinerAdversaryConfig(t=1, bad_edge_fraction=1.0, distinct_fraction=0.0)
    w = _walk([1, 0])
    res = steiner_certificate(paths, w, 3, cfg)
    assert res.witness["x_prime_size"] == 0
    assert res.holds  # lhs = c(P[{1}]) = 1 >= 1*3/6
    # a good walk longer than girth/3 voids the girth argument: refused
    long_cfg = SteinerAdversaryConfig(t=2, bad_edge_fraction=1.0, distinct_fraction=0.0)
    with pytest.raises(PreconditionError, match="girth/3"):
        steiner_certificate(paths, _walk([1, 0, 2]), 3, long_cfg)


def test_check_separation(lps_5_13, lps_5_13_metric):
    g, cert = lps_5_13
    m = lps_5_13_metric
    # identical starts -> false
    w = random_walk(g, 2, stream(6, 0))
    assert not check_separation(w, w, m, 2)
    # accepted samples verify the pairwise implication exhaustively inside
    found = 0
    for i in range(300):
        q1 = random_walk(g, 2, stream(7, i))
        q2 = random_walk(g, 2, stream(8, i))
        if check_separation(q1, q2, m, 2):
            found += 1
            for u in q1.tolist():
                for v in q2.tolist():
                    assert m.d(u, v) >= 2
    assert found > 0


def test_check_separation_boundary():
    # path of length 6: starts at exactly distance 3t = 6 with t = 2
    g = Graph(n=7, edges=tuple((i, i + 1) for i in range(6)))
    m = shortest_path_metric(g, 0)
    q1 = _walk([0, 1])
    q2 = _walk([6, 5])
    assert check_separation(q1, q2, m, 2)


def test_separation_violation_is_falsification():
    # not a metric: d(0,3) + d(3,1) = 1.5 < d(0,1) = 6, so E1 holds at the
    # starts while the cross pair (0,3) sits closer than t = 1
    m = MetricSpace(n=4, dist=np.array([[0, 6, 1, .5], [6, 0, .5, 1],
                                        [1, .5, 0, 9], [.5, 1, 9, 0]]), root=0)
    with pytest.raises(CertificateFalsification, match=r"d\(0,3\) < 1"):
        check_separation(_walk([0, 2]), _walk([1, 3]), m, 1)


def test_block_alternation_boundaries():
    sigma = TourOrder(root=0, order=tuple(range(1, 9)))  # 8 entries, blocks of 2
    b1, b2, shared, e2 = block_alternation(sigma, [1], [2], 4)
    assert (b1, b2, shared) == (1, 1, 1)
    assert not e2
    # both hit exactly 3 of 4 blocks: boundary of 3l/4
    x1 = [1, 3, 5]
    x2 = [2, 4, 6]
    b1, b2, shared, e2 = block_alternation(sigma, x1, x2, 4)
    assert b1 == 3 and b2 == 3
    assert e2
    assert shared >= 1  # 3 + 3 - 4 = 2 by inclusion-exclusion, >= blocks/4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_e2_implies_shared_quarter(data):
    n = data.draw(st.integers(8, 40))
    blocks = data.draw(st.integers(1, 8))
    order = tuple(data.draw(st.permutations(range(1, n))))
    sigma = TourOrder(root=0, order=order)
    x1 = data.draw(st.lists(st.integers(1, n - 1), max_size=10, unique=True))
    x2 = data.draw(st.lists(st.integers(1, n - 1), max_size=10, unique=True))
    b1, b2, shared, e2 = block_alternation(sigma, x1, x2, blocks)
    if e2:
        assert shared >= blocks / 4.0  # asserted internally as well
    # Both rules count shared blocks with the same scan.
    x1 = [v for v in x1 if v not in x2]
    m = shortest_path_metric(Graph(n=n, edges=tuple((i, i + 1) for i in range(n - 1))), 0)
    cert = tsp_certificate(sigma, m, x1, x2, t=1, blocks=blocks)
    assert cert.witness["shared"] == block_alternation(sigma, x1, x2, blocks)[2]


def _scan_blocks(sigma, x1, x2, blocks, fraction):
    """Reference block rule: scan every tour position."""
    size = max(1, len(sigma.order) // blocks)
    hit1, hit2 = set(), set()
    for i, v in enumerate(sigma.order):
        b = min(i // size, blocks - 1)
        if v in x1:
            hit1.add(b)
        if v in x2:
            hit2.add(b)
    b1, b2 = len(hit1), len(hit2)
    return b1, b2, len(hit1 & hit2), b1 >= fraction * blocks and b2 >= fraction * blocks


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_alternation_matches_full_scan(data):
    n = data.draw(st.integers(2, 40))
    root = data.draw(st.integers(0, n - 1))
    blocks = data.draw(st.integers(1, n + 2))
    order = tuple(data.draw(st.permutations([v for v in range(n) if v != root])))
    sigma = TourOrder(root=root, order=order)
    x1 = set(data.draw(st.lists(st.integers(0, n - 1), max_size=12)))
    x2 = set(data.draw(st.lists(st.integers(0, n - 1), max_size=12)))
    if data.draw(st.booleans()):
        x1.add(root)
    x2 |= set(data.draw(st.lists(st.sampled_from(sorted(x1)), max_size=4))) if x1 else set()
    fraction = data.draw(st.sampled_from([0.0, 0.5, 0.75, 1.0]))
    assert block_alternation(sigma, sorted(x1), sorted(x2), blocks, fraction) == \
        _scan_blocks(sigma, x1, x2, blocks, fraction)


def test_tsp_certificate_shared_zero(lps_5_13_metric):
    m = lps_5_13_metric
    sigma = TourOrder(root=0, order=tuple(v for v in range(m.n) if v != 0))
    res = tsp_certificate(sigma, m, [], [], t=2, blocks=4)
    assert res.holds and res.rhs == 0.0


def test_tsp_certificate_single_crossing():
    # root 0; path graph so distances are positions
    g = Graph(n=8, edges=tuple((i, i + 1) for i in range(7)))
    m = shortest_path_metric(g, 0)
    sigma = TourOrder(root=0, order=(1, 5, 2, 6, 3, 7, 4))
    res = tsp_certificate(sigma, m, [1], [5], t=4, blocks=1)
    assert res.holds
    assert res.witness["pairs"] == [(1, 5)]
    assert res.lhs >= res.rhs == 4.0


def test_tsp_certificate_rejects_overlap(lps_5_13_metric):
    sigma = TourOrder(root=0, order=tuple(v for v in range(lps_5_13_metric.n) if v != 0))
    with pytest.raises(PreconditionError):
        tsp_certificate(sigma, lps_5_13_metric, [1, 2], [2, 3], 2, 4)


def test_tsp_certificate_on_qualifying_samples(lps_5_13, lps_5_13_metric):
    g, cert = lps_5_13
    m = lps_5_13_metric
    cfg = TspAdversaryConfig(t=2, blocks=4)
    non_root = [v for v in range(g.n) if v != 0]
    qualifying = 0
    for i in range(600):
        sigma = TourOrder(root=0, order=tuple(
            int(v) for v in stream(9, i).permutation(non_root)))
        q1 = random_walk(g, cfg.t, stream(10, i))
        q2 = random_walk(g, cfg.t, stream(11, i))
        if not check_separation(q1, q2, m, cfg.t):
            continue
        b1, b2, shared, e2 = block_alternation(sigma, q1, q2, cfg.blocks)
        if not e2:
            continue
        qualifying += 1
        res = tsp_certificate(sigma, m, q1, q2, cfg.t, cfg.blocks)
        assert res.holds
        assert res.lhs >= shared * cfg.t
    assert qualifying > 0


def _recorded_certificates(monkeypatch, certificate: str, **config):
    """Run a pipeline and return each certificate call's (args, result)."""
    real = getattr(experiments, certificate)
    calls = []

    def record(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, certificate, record)
    run_experiment(RunConfig.make(graph="lps:5,13", seed=20250808, **config))
    assert calls
    return calls


def test_steiner_certificates_hold_apart_from_the_fast_path(monkeypatch):
    # X' from the first-edge set, stubs from the path tuples, lhs from the
    # edge-set projection: none of them reads the kernels' tables
    calls = _recorded_certificates(monkeypatch, "steiner_certificate", pipeline="steiner-lb",
                                   t="auto", trials=2000)
    for (p, w, girth, cfg, m), res in calls:
        walk = w.tolist()
        F = first_edges_ref(p)
        touched = {v for a, b in zip(walk, walk[1:]) if (min(a, b), max(a, b)) in F
                   for v in (a, b)}
        x_prime = sorted(set(walk) - {p.root} - touched)
        stub_len = max(0, min(girth // 3, (girth - 1 - cfg.t) // 2))
        stubs = [p.paths[u][:stub_len + 1] for u in x_prime]
        covered = [v for stub in stubs for v in stub]
        assert len(covered) == len(set(covered))  # pairwise disjoint
        assert res.holds and res.witness["x_prime_size"] == len(x_prime)
        assert res.witness["stub_edge_sum"] == sum(len(s) - 1 for s in stubs) <= res.lhs
        assert res.lhs == project_paths_ref(p, walk, m)


@pytest.mark.parametrize("blocks", ["auto", 2])
def test_tsp_certificates_hold_apart_from_the_fast_path(blocks, monkeypatch):
    # the bound follows from the witness pairs alone: consecutive legs of the
    # projected tour, each at least t, one in each shared block (2 blocks
    # hold several terminals of a class, so a block can hold several
    # crossings)
    calls = _recorded_certificates(monkeypatch, "tsp_certificate", pipeline="tsp-lb",
                                   solution="random-tour", solution_count=8, t=2,
                                   blocks=blocks, trials=3000)
    for (sigma, m, q1, q2, t, blocks), res in calls:
        x1, x2 = set(q1.tolist()) - {sigma.root}, set(q2.tolist()) - {sigma.root}
        pos = {v: i for i, v in enumerate(sigma.order)}
        order = sorted(x1 | x2, key=pos.__getitem__)
        size = max(1, len(sigma.order) // blocks)

        def block(v):
            return min(pos[v] // size, blocks - 1)

        pairs = res.witness["pairs"]
        shared = len({block(v) for v in x1} & {block(v) for v in x2})
        assert res.holds and res.witness["shared"] == shared <= len(pairs)
        for a, b in pairs:
            assert order[order.index(a) + 1] == b
            assert (a in x1) != (b in x1) and block(a) == block(b)
            assert m.d(a, b) >= t
        assert len({block(a) for a, _ in pairs}) == len(pairs)
        assert res.lhs == project_tour_ref(sigma, m, x1 | x2) >= len(pairs) * t
