from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernels_ref import (
    collection_ref,
    path_to_root_ref,
    restricted_dfs_order_ref,
    root_paths_ref,
    tree_to_tour_ref,
)
from univlb import experiments, solutions
from univlb.experiments import RunConfig, run_universal_upper
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
    with pytest.raises(ValueError, match="cycle"):
        SpanningTree(root=0, parent=(0, 2, 1), edge_cost=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="cycle"):  # a second fixed point
        SpanningTree(root=0, parent=(0, 1, 1), edge_cost=(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="cycle"):  # 2,000 vertices off the root
        SpanningTree(root=0, parent=(0, *range(2, 2001), 1), edge_cost=(0.0,) * 2001)
    deep = SpanningTree(root=0, parent=(0, *range(1999)), edge_cost=(1.0,) * 2000)
    assert path_to_root_ref(deep, 1999) == tuple(range(1999, -1, -1))
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
        path = path_to_root_ref(t, v)
        cost = sum(m.d(a, b) for a, b in zip(path, path[1:]))
        assert cost == m.d(v, 0)


def test_star_tree_is_star(star4):
    t = bfs_tree(star4, 0)
    assert np.array_equal(t.parent, [0, 0, 0, 0])
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
    assert np.array_equal(sigma.order, order) and sigma.order.dtype == np.int64
    assert not sigma.order.flags.writeable and "positions" not in repr(sigma)


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
    assert np.array_equal(sigma.order, [1, 2, 3])
    assert project_tour(sigma, m, {1, 2, 3}) == 6.0 == 2 * t.total_cost


def test_tree_to_tour_path(path3):
    m = shortest_path_metric(path3, 0)
    t = bfs_tree(path3, 0)
    sigma = tree_to_tour(t)
    assert np.array_equal(sigma.order, [1, 2])
    assert project_tour(sigma, m, {1, 2}) == 4.0 == 2 * t.total_cost


def test_path_collection_star(star4):
    t = bfs_tree(star4, 0)
    p = tree_to_path_collection(t)
    assert p.paths.tolist() == [[-1, -1], [1, 0], [2, 0], [3, 0]]
    assert p.first_steps.tolist() == [-1, 0, 0, 0]
    m = shortest_path_metric(star4, 0)
    assert project_paths(p, {1}, m) == 1.0
    # identical paths union once: edges (1,2), (1,3) and the shared (0,1)
    p2 = collection_ref(0, ((), (1, 0), (2, 1, 0), (3, 1, 0)))
    assert project_paths(p2, {2, 3}, None) == 3.0


def test_path_collection_validation():
    with pytest.raises(ValueError):
        PathCollection(root=0, paths=np.array([[-1, -1], [2, 0]]))  # path of 1 starts elsewhere


# one case per check of the vertex table, each with the message it raises
@pytest.mark.parametrize("root, table, message", [
    pytest.param(0, [-1, 0], "integer table", id="one-row"),
    pytest.param(0, np.zeros((2, 0), dtype=np.int64), "integer table", id="no-columns"),
    pytest.param(0, [[-1.0, -1.0], [1.0, 0.0]], "integer table", id="floats"),
    pytest.param(2, [[-1, -1], [1, 0]], "integer table", id="root-not-a-row"),
    pytest.param(0, [[-1, -1], [1, 2]], "vertices 0..1 or -1", id="vertex-too-large"),
    pytest.param(0, [[-1, -1, -1], [1, -2, 0]], "vertices 0..1 or -1", id="below-padding"),
    pytest.param(0, [[-1, -1, -1], [1, -1, 0]], "after its padding", id="gap"),
    pytest.param(0, [[-1, 1], [1, 0]], "after its padding", id="root-row-not-padding"),
    pytest.param(0, [[-1, -1], [0, 0]], "must start at v", id="starts-elsewhere"),
    pytest.param(0, [[0, -1], [1, 0]], "must start at v", id="root-row-holds-root"),
    pytest.param(0, [[-1, -1, -1], [1, 1, -1], [2, 0, -1]], "end at the root",
                 id="ends-elsewhere"),
    pytest.param(0, [[-1, -1], [1, -1]], "end at the root", id="no-step"),
])
def test_path_collection_refuses_each_bad_table(root, table, message):
    with pytest.raises(ValueError, match=message):
        PathCollection(root=root, paths=np.array(table))


def test_path_collection_owns_a_read_only_table():
    table = np.array([[-1, -1, -1], [1, 0, -1], [2, 1, 0]], dtype=np.int32)
    p = PathCollection(root=0, paths=table)
    table[2] = [2, 0, -1]
    assert p.paths.dtype == np.int64 and not p.paths.flags.writeable
    assert p.paths.tolist() == [[-1, -1, -1], [1, 0, -1], [2, 1, 0]]
    assert p.first_steps.tolist() == [-1, 0, 1]
    assert p.edge_keys.tolist() == [[-1, -1], [1, -1], [5, 1]]
    root_only = PathCollection(root=0, paths=np.array([[-1]]))
    assert root_only.first_steps.tolist() == [-1] and root_only.edge_keys.shape == (1, 0)


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
    union = {v for u in x for v in path_to_root_ref(t, u)} - {t.root}
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


@st.composite
def euclidean_trees_and_terminals(draw):
    """Any rooted tree on 1..30 points, each edge costing the Euclidean
    distance between its ends, and a terminal list in any order that may be
    empty, repeat vertices or hold the root."""
    n = draw(st.integers(1, 30))
    order = draw(st.permutations(range(n)))
    parent = list(range(n))
    for i in range(1, n):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    pts = stream(draw(st.integers(0, 2 ** 16))).random((n, 2))
    cost = np.sqrt(((pts - pts[parent]) ** 2).sum(axis=1))
    x = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return SpanningTree(root=order[0], parent=parent, edge_cost=cost), x


@settings(max_examples=300, deadline=None)
@given(euclidean_trees_and_terminals())
@example((SpanningTree(root=2, parent=[2, 0, 2], edge_cost=[0.5, 0.25, 0.0]), [2, 1, 2, 1]))
def test_tree_kernels_match_the_walk_and_the_stack_dfs(data):
    # float sums compared by ==: the projection adds the walk's edges in the
    # walk's order, whatever order X iterates in
    t, x = data
    for terminals in (x, x[::-1], set(x)):
        assert project_tree(t, terminals) == root_paths_ref(t, terminals)[0]
        assert restricted_dfs_order(t, terminals) == restricted_dfs_order_ref(t, terminals)
    assert project_tree(t, []) == 0.0 and project_tree(t, [t.root]) == 0.0
    assert tree_to_tour(t).order.tolist() == list(tree_to_tour_ref(t))


@pytest.mark.parametrize("parent", [[0, *range(2000)], [0] * 2001],
                         ids=["path-2000-deep", "star-2000-leaves"])
def test_tree_to_tour_is_the_stack_dfs_on_a_deep_path_and_a_wide_star(parent):
    t = SpanningTree(root=0, parent=parent, edge_cost=np.ones(len(parent)))
    assert tree_to_tour(t).order.tolist() == list(tree_to_tour_ref(t)) == list(range(1, 2001))


def test_trees_and_tours_hold_read_only_arrays():
    t = SpanningTree(root=1, parent=(1, 1, 0), edge_cost=(1, 0, 2))
    sigma = TourOrder(root=1, order=[2, 0])
    for array, dtype in ((t.parent, np.int64), (t.edge_cost, np.float64), (t.paths, np.int64),
                         (sigma.order, np.int64), (sigma.positions, np.int64)):
        assert array.dtype == dtype and not array.flags.writeable
    assert t.paths.tolist() == [[0, 1, -1], [-1, -1, -1], [2, 0, 1]]
    assert tree_to_path_collection(t).paths.tolist() == t.paths.tolist()


def test_contiguity_counts_a_tour_with_children_descending(monkeypatch):
    # the restricted order does not read the tour: a wrong child order in
    # the tour alone must show as contiguity violations
    cfg = RunConfig.make(pipeline="universal-upper", metrics=5, trees_per_metric=10,
                         terminals_per_metric=3, max_terminals=10, metric_size_min=32,
                         metric_size_max=64, seed=20250808)
    assert run_universal_upper(cfg).aggregates["violations"]["contiguity"] == 0

    def descending(t):
        return TourOrder(root=t.root, order=tree_to_tour_ref(t, descending=True))

    for module in (experiments, solutions):
        monkeypatch.setattr(module, "tree_to_tour", descending)
    report = run_universal_upper(cfg)
    assert report.aggregates["violations"]["contiguity"] > 0
    assert not any(row["contiguity"] for row in report.rows)
