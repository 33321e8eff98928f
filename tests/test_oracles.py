from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb.graphs import Graph
from univlb.metric import MetricSpace, random_euclidean_metric, shortest_path_metric
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


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail, instead of stalling the suite, when the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_optimal_tree(m: MetricSpace, x: set[int], cost: float, edges) -> None:
    """The witness is a tree holding X and the root, and costs OPT."""
    assert cost == pytest.approx(steiner_exact(m, x), rel=1e-12)
    assert sum(m.d(u, v) for u, v in edges) == pytest.approx(cost, rel=1e-9, abs=1e-12)
    verts = {v for e in edges for v in e} | {m.root}
    assert x <= verts and len(edges) == len(verts) - 1
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:  # n - 1 edges, none closing a cycle: a spanning tree
        ru, rv = find(u), find(v)
        assert ru != rv
        parent[ru] = rv


def test_witness_ends_on_a_zero_distance():
    # 1 and 2 coincide: the backtrack used to hop between them for ever
    m = MetricSpace(n=3, dist=np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]]), root=0)
    with _time_limit(10):
        cost, edges = steiner_exact_witness(m, {1, 2})
    assert cost == 1.0
    _assert_optimal_tree(m, {1, 2}, cost, edges)


@st.composite
def metrics_with_twins(draw):
    """A closed random metric on k base points, then n >= k points each a
    copy of a base point: every pair of copies is at distance 0."""
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    integral = draw(st.booleans())
    a = rng.integers(1, 4, size=(k, k)) if integral else rng.uniform(0.5, 2.0, size=(k, k))
    base = np.triu(a, 1).astype(np.float64)
    base += base.T
    for w in range(k):
        base = np.minimum(base, base[:, w, None] + base[None, w, :])
    copy_of = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=10))
    copy_of[:k] = range(k)  # each base point at least once
    n = len(copy_of)
    root = draw(st.integers(0, n - 1))
    x = set(draw(st.lists(st.integers(0, n - 1), max_size=7)))
    return MetricSpace(n=n, dist=base[np.ix_(copy_of, copy_of)], root=root), x


@settings(max_examples=150, deadline=None)
@given(metrics_with_twins())
def test_witness_ends_on_zero_distances(instance):
    m, x = instance
    with _time_limit(10):
        cost, edges = steiner_exact_witness(m, x)
    _assert_optimal_tree(m, x, cost, edges)


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


@pytest.mark.parametrize("oracle", [steiner_exact, tsp_exact])
@pytest.mark.parametrize("terminal", [20, -1])
def test_terminal_outside_the_metric_is_an_error_not_a_refusal(oracle, terminal):
    # a refusal would fall back to a surrogate; a bad vertex is bad input
    m = random_euclidean_metric(20, stream(6, 0))
    with pytest.raises(ValueError, match=f"terminal {terminal} is not a vertex") as exc:
        oracle(m, {1, terminal})
    assert not isinstance(exc.value, OracleRefusal)


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
