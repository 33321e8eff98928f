from __future__ import annotations

import pytest

from univlb.graphs import Graph
from univlb.metric import random_euclidean_metric, shortest_path_metric
from univlb.oracles import (
    OracleBudget,
    OracleRefusal,
    opt_surrogates,
    steiner_exact,
    steiner_exact_witness,
    tsp_exact,
    tsp_exact_witness,
)
from univlb.rng import stream
from univlb.walks import random_walk

from oracles_brute import steiner_brute, tsp_brute


def test_singleton(k4):
    m = shortest_path_metric(k4, 0)
    assert steiner_exact(m, {2}) == m.d(2, 0)
    assert tsp_exact(m, {2}) == 2 * m.d(2, 0)


def test_k4_examples(k4):
    m = shortest_path_metric(k4, 0)
    assert steiner_exact(m, {1, 2, 3}) == 3.0
    assert tsp_exact(m, {1, 2, 3}) == 4.0


def test_star_steiner_through_hub():
    g = Graph(n=4, edges=((1, 0), (1, 2), (1, 3)))  # hub 1, root 0
    m = shortest_path_metric(g, 0)
    cost, edges = steiner_exact_witness(m, {2, 3})
    assert cost == 3.0
    assert set(edges) == {(0, 1), (1, 2), (1, 3)}


def test_witness_cost_matches():
    m = random_euclidean_metric(20, stream(1, 0))
    x = {3, 7, 11, 15}
    cost, edges = steiner_exact_witness(m, x)
    total = sum(m.d(u, v) for u, v in edges)
    assert total == pytest.approx(cost, rel=1e-9)
    verts = {v for e in edges for v in e}
    assert x | {m.root} <= verts

    tcost, order = tsp_exact_witness(m, x)
    legs = [m.root] + order + [m.root]
    assert sum(m.d(a, b) for a, b in zip(legs, legs[1:])) == pytest.approx(tcost)
    assert sorted(order) == sorted(x)


def test_matches_brute_force_small():
    for seed in range(10):
        m = random_euclidean_metric(7, stream(2, seed))
        rng = stream(3, seed)
        k = int(rng.integers(1, 5))
        x = set(int(v) for v in rng.choice(range(1, 7), size=k, replace=False))
        assert steiner_exact(m, x) == pytest.approx(
            steiner_brute(m.dist, m.n, x | {0}), rel=1e-9)
        assert tsp_exact(m, x) == pytest.approx(
            tsp_brute(m.dist, 0, x), rel=1e-9)


def test_matches_brute_force_on_seven_vertex_graphs():
    # sampled 7-vertex unit-cost graphs with every terminal set each
    rng = stream(31, 0)
    checked = 0
    while checked < 60:
        n = 7
        edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
        extra = rng.integers(0, 2, size=(n * (n - 1)) // 2)
        idx = 0
        for u in range(n):
            for v in range(u + 1, n):
                if extra[idx]:
                    edges.add((u, v))
                idx += 1
        m = shortest_path_metric(Graph(n=n, edges=tuple(sorted(edges))), 0)
        for mask in range(1, 1 << (n - 1)):
            x = {v + 1 for v in range(n - 1) if mask >> v & 1}
            assert steiner_exact(m, x) == pytest.approx(
                steiner_brute(m.dist, n, x | {0}), rel=1e-9)
        checked += 1


def test_witness_backtrack_stress():
    # witness must re-derive cleanly across many float metrics and sizes
    for seed in range(40):
        rng = stream(21, seed)
        n = int(rng.integers(6, 30))
        m = random_euclidean_metric(n, rng)
        k = int(rng.integers(1, min(8, n - 1)))
        x = set(int(v) for v in rng.choice(range(1, n), size=k, replace=False))
        cost, edges = steiner_exact_witness(m, x)
        total = sum(m.d(u, v) for u, v in edges)
        assert total == pytest.approx(cost, rel=1e-9)
        # edges form a connected subgraph containing terminals and root
        verts = {v for e in edges for v in e} | {m.root}
        assert x | {m.root} <= verts
        adj = {v: set() for v in verts}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {m.root}
        stack = [m.root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert x <= seen


def test_sandwich():
    for seed in range(8):
        m = random_euclidean_metric(16, stream(4, seed))
        rng = stream(5, seed)
        k = int(rng.integers(1, 8))
        x = set(int(v) for v in rng.choice(range(1, 16), size=k, replace=False))
        st_opt = steiner_exact(m, x)
        ts_opt = tsp_exact(m, x)
        assert st_opt <= ts_opt + 1e-9
        assert ts_opt <= 2 * st_opt + 1e-9


def test_refusals():
    m = random_euclidean_metric(20, stream(6, 0))
    tight = OracleBudget(steiner_terminals=3, tsp_terminals=3)
    with pytest.raises(OracleRefusal):
        steiner_exact(m, {1, 2, 3, 4}, tight)
    with pytest.raises(OracleRefusal):
        tsp_exact(m, {1, 2, 3, 4}, tight)
    guard = OracleBudget(max_table_entries=8)
    with pytest.raises(OracleRefusal):
        steiner_exact(m, {1, 2, 3}, guard)


def test_surrogates_upper_bound(lps_5_13, lps_5_13_metric):
    g, cert = lps_5_13
    m = lps_5_13_metric
    for i in range(30):
        w = random_walk(g, 2, stream(7, i))
        x = set(w.vertex_set) - {0}
        if not x:
            continue
        bounds = opt_surrogates([w], 2, cert.diameter)
        assert bounds.steiner == 2 + cert.diameter
        assert bounds.steiner >= steiner_exact(m, x) - 1e-9
        w2 = random_walk(g, 2, stream(8, i))
        x2 = (set(w.vertex_set) | set(w2.vertex_set)) - {0}
        pair = opt_surrogates([w, w2], 2, cert.diameter)
        assert pair.tsp >= tsp_exact(m, x2) - 1e-9


def test_surrogate_degenerate_walk(star4):
    m = shortest_path_metric(star4, 0)
    w = random_walk(star4, 0, stream(9, 0))
    b = opt_surrogates([w], 0, 2)
    x = set(w.vertex_set) - {0}
    assert b.steiner == 2.0  # t=0 plus diameter; still an upper bound
    assert b.steiner >= steiner_exact(m, x)
