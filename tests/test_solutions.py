from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb.metric import MetricSpace, shortest_path_metric
from univlb.rng import stream
from univlb.solutions import (
    PathCollection,
    SpanningTree,
    TourOrder,
    bfs_tree,
    project_paths,
    project_tour,
    project_tree,
    restricted_dfs_order,
    tour_tables,
    tree_to_path_collection,
    tree_to_tour,
)


def test_tree_validation():
    with pytest.raises(ValueError):
        SpanningTree(root=0, parent=(1, 0), edge_cost=(0.0, 1.0))  # root not fixed
    with pytest.raises(ValueError):
        SpanningTree(root=0, parent=(0, 2, 1), edge_cost=(0.0, 1.0, 1.0))  # cycle
    with pytest.raises(ValueError, match="vertices 0..1"):
        SpanningTree(root=0, parent=(0, 5), edge_cost=(0.0, 1.0))
    with pytest.raises(ValueError, match="vertices 0..1"):
        SpanningTree(root=2, parent=(0, 0), edge_cost=(0.0, 1.0))
    with pytest.raises(ValueError, match="edge_cost has 1 entries for 2 vertices"):
        SpanningTree(root=0, parent=(0, 0), edge_cost=(0.0,))


def test_spt_path_costs(petersen):
    m = shortest_path_metric(petersen, 0)
    t = bfs_tree(petersen, 0)
    for v in range(petersen.n):
        path = t.path_to_root(v)
        cost = sum(m.d(a, b) for a, b in zip(path, path[1:]))
        assert cost == m.d(v, 0)


def test_star_tree_is_star(star4):
    t = bfs_tree(star4, 0)
    assert t.parent == (0, 0, 0, 0)
    assert t.total_cost == 3.0


def test_spt_k_approximation_baseline(petersen):
    # c(T[X]) <= sum of root distances <= |X| * diameter, for every X
    m = shortest_path_metric(petersen, 0)
    t = bfs_tree(petersen, 0)
    diam = m.dist.max()
    rng = stream(99, 0)
    for _ in range(50):
        k = int(rng.integers(1, 10))
        x = set(int(v) for v in rng.choice(range(1, 10), size=k, replace=False))
        cost = project_tree(t, x)
        root_sum = sum(m.d(v, 0) for v in x)
        assert cost <= root_sum + 1e-9
        assert root_sum <= len(x) * diam


def test_project_tree_conventions(star4):
    t = bfs_tree(star4, 0)
    assert project_tree(t, set()) == 0.0
    assert project_tree(t, {0}) == 0.0
    assert project_tree(t, {1, 2}) == 2.0
    assert project_tree(t, {1, 2, 3}) == t.total_cost


def test_tour_validation():
    with pytest.raises(ValueError):
        TourOrder(root=0, order=(1, 1, 2))
    with pytest.raises(ValueError):
        TourOrder(root=0, order=(0, 1, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.data())
def test_tour_check_is_the_set_comparison(n, data):
    # one array pass checks the order and indexes it; it must accept
    # exactly the orders that list each non-root vertex once
    root = data.draw(st.integers(-1, n))
    order = tuple(data.draw(st.lists(st.integers(-1, n), min_size=n - 1, max_size=n - 1)))
    if data.draw(st.booleans()) and 0 <= root < n:  # a valid order, half the time
        order = tuple(data.draw(st.permutations([v for v in range(n) if v != root])))
    valid = set(order) == set(range(n)) - {root}
    if not valid:
        with pytest.raises(ValueError, match="each non-root vertex exactly once"):
            TourOrder(root=root, order=order)
        return
    sigma = TourOrder(root=root, order=order)
    assert sigma.positions.dtype == np.int64 and not sigma.positions.flags.writeable
    assert sigma.positions.tolist() == [order.index(v) if v != root else -1 for v in range(n)]
    assert sigma == TourOrder(root=root, order=order) and "positions" not in repr(sigma)


def test_tour_check_refuses_non_integer_entries():
    with pytest.raises(ValueError, match="exactly once"):
        TourOrder(root=0, order=(1.5, 2))
    with pytest.raises(ValueError, match="exactly once"):
        TourOrder(root=0, order=("1", "2"))


def test_project_tour_examples(cycle4):
    m = shortest_path_metric(cycle4, 0)
    sigma = TourOrder(root=0, order=(1, 2, 3))
    assert project_tour(sigma, m, {2}) == 2 * m.d(0, 2) == 4.0
    assert project_tour(sigma, m, {1, 3}) == 1 + 2 + 1
    assert project_tour(sigma, m, set()) == 0.0
    assert project_tour(sigma, m, {sigma.order[0]}) == 2 * m.d(0, sigma.order[0])


def test_tree_to_tour_star(star4):
    m = shortest_path_metric(star4, 0)
    t = bfs_tree(star4, 0)
    sigma = tree_to_tour(t)
    assert sigma.order == (1, 2, 3)
    assert project_tour(sigma, m, {1, 2, 3}) == 6.0 == 2 * t.total_cost


def test_tree_to_tour_path(path3):
    m = shortest_path_metric(path3, 0)
    t = bfs_tree(path3, 0)
    sigma = tree_to_tour(t)
    assert sigma.order == (1, 2)
    assert project_tour(sigma, m, {1, 2}) == 4.0 == 2 * t.total_cost


def test_path_collection_star(star4):
    t = bfs_tree(star4, 0)
    p = tree_to_path_collection(t)
    assert p.paths[1] == (1, 0)
    assert p.first_steps.tolist() == [-1, 0, 0, 0]
    m = shortest_path_metric(star4, 0)
    assert project_paths(p, {1}, m) == 1.0
    # identical paths union once: edges (1,2), (1,3) and the shared (0,1)
    p2 = PathCollection(root=0, paths=((), (1, 0), (2, 1, 0), (3, 1, 0)))
    assert project_paths(p2, {2, 3}, None) == 3.0


def test_path_collection_validation():
    with pytest.raises(ValueError):
        PathCollection(root=0, paths=((), (2, 0)))  # path of 1 starts elsewhere


@st.composite
def random_tree_and_sets(draw):
    n = draw(st.integers(2, 12))
    parent = [0] * n
    for v in range(1, n):
        parent[v] = draw(st.integers(0, v - 1))
    k = draw(st.integers(0, n - 1))
    xs = draw(st.lists(st.integers(1, n - 1), min_size=k, max_size=k, unique=True))
    return n, tuple(parent), set(xs)


@settings(max_examples=200, deadline=None)
@given(random_tree_and_sets())
def test_paths_equal_tree_projection(data):
    n, parent, x = data
    rng = stream(42, n, len(x))
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    m = MetricSpace(n=n, dist=dist, root=0)
    costs = tuple(0.0 if v == 0 else float(dist[v, parent[v]]) for v in range(n))
    t = SpanningTree(root=0, parent=parent, edge_cost=costs)
    p = tree_to_path_collection(t)
    assert project_paths(p, x, m) == pytest.approx(project_tree(t, x), rel=1e-12)
    # unit costs count edges: both sides count the same edge set
    unit = SpanningTree(root=0, parent=parent, edge_cost=(0.0,) + (1.0,) * (n - 1))
    assert project_paths(p, x, None) == project_tree(unit, x)


@settings(max_examples=200, deadline=None)
@given(random_tree_and_sets())
def test_doubling_and_contiguity(data):
    n, parent, x = data
    rng = stream(43, n, len(x))
    pts = rng.random((n, 2))
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    m = MetricSpace(n=n, dist=dist, root=0)
    costs = tuple(0.0 if v == 0 else float(dist[v, parent[v]]) for v in range(n))
    t = SpanningTree(root=0, parent=parent, edge_cost=costs)
    sigma = tree_to_tour(t)
    c_tx = project_tree(t, x)
    c_sx = project_tour(sigma, m, x)
    assert c_sx <= 2 * c_tx + 1e-9
    pos = sigma.positions
    assert restricted_dfs_order(t, x) == tuple(sorted(
        (v for v in x if v != 0), key=pos.__getitem__))


@st.composite
def weighted_tree_and_set(draw):
    """A random rooted tree with integer edge costs, zeros included, and a
    terminal set that may hold the root and need not be sorted."""
    n = draw(st.integers(1, 12))
    parent = tuple([0] + [draw(st.integers(0, v - 1)) for v in range(1, n)])
    costs = (0.0,) + tuple(float(draw(st.integers(0, 3))) for _ in range(n - 1))
    x = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return SpanningTree(root=0, parent=parent, edge_cost=costs), x


@settings(max_examples=300, deadline=None)
@given(weighted_tree_and_set())
def test_project_tree_is_root_path_union_cost(data):
    t, x = data
    union = {v for u in x for v in t.path_to_root(u)} - {t.root}
    assert project_tree(t, x) == sum(t.edge_cost[v] for v in union)  # integer sums


@settings(max_examples=300, deadline=None)
@given(weighted_tree_and_set())
def test_restricted_dfs_order_is_tour_restriction(data):
    t, x = data
    pos = tree_to_tour(t).positions
    assert restricted_dfs_order(t, x) == tuple(sorted(
        (v for v in x if v != t.root), key=pos.__getitem__))


def test_tour_tables_stack_the_tours_positions():
    tours = [TourOrder(root=r, order=tuple(int(v) for v in stream(46, r).permutation(
        [v for v in range(7) if v != r]))) for r in (0, 3, 6)]
    positions, orders = tour_tables(tours)
    for s, sigma in enumerate(tours):
        assert positions[s].tolist() == sigma.positions.tolist()
        assert orders[s].tolist() == [*sigma.order, sigma.root]
