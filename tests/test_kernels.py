"""Parity of the array kernels with their loop references.

``tree_to_path_collection`` gathers a tree's vertex table one column at a
time, ``project_paths`` and ``project_path_rows`` read ``PathCollection.edge_keys``,
``walk_block`` walks its rows in lockstep over the neighbour table,
``good_walks`` tests a block of walks in one pass, ``project_tour_rows`` sums
the legs of a block of tours, the exact oracles fill their tables one
array min (Dreyfus-Wagner) or argmin (Held-Karp) at a time,
``steiner_table`` fills one popcount level at a time, ``frt_samples``
settles every point of a level of every tree at once and reads the HST
distances and the contraction off its label tables, and ``tree_distances``
reads each pair's LCA from one ancestor table; each must give exactly what
the loops in ``kernels_ref`` give.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernels_ref import (
    collection_ref,
    first_edges_ref,
    frt_sample_ref,
    hst_nodes,
    hst_to_spanning_tree_ref,
    is_good_walk_ref,
    path_tuples,
    project_paths_ref,
    project_tour_ref,
    random_walk_ref,
    steiner_exact_ref,
    steiner_table_ref,
    tree_distances_ref,
    tree_paths_ref,
    tsp_exact_ref,
)
from univlb.adversary import SteinerAdversaryConfig, good_walks, is_good_walk
from univlb.frt import (
    frt_sample,
    frt_samples,
    hst_distances,
    hsts_dominate,
    hsts_to_spanning_trees,
    stretch_stats,
    tree_distances,
)
from univlb.graphs import Graph
from univlb.metric import MetricSpace, random_euclidean_metric, shortest_path_metric
from univlb.oracles import (
    DEFAULT_BUDGET,
    steiner_exact,
    steiner_exact_witness,
    steiner_table,
    tsp_exact_witness,
)
from univlb.rng import WALK, draw_rows, stream
from univlb.solutions import (
    SpanningTree,
    TourOrder,
    bfs_tree,
    project_path_rows,
    project_paths,
    project_tour,
    project_tour_rows,
    stack_edge_keys,
    tour_tables,
    tree_to_path_collection,
)
from univlb.walks import random_walk, slot_bounds, walk_block


@st.composite
def path_collections(draw):
    """Any path collection, not only a tree's: p_v runs from v to the root
    through arbitrary vertices, repeats and self-steps included. X may be
    empty and may hold the root."""
    n = draw(st.integers(1, 10))
    root = draw(st.integers(0, n - 1))
    paths = tuple(
        () if v == root else (v, *draw(st.lists(st.integers(0, n - 1), max_size=6)), root)
        for v in range(n))
    x = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return collection_ref(root, paths), x


def _symmetric(n: int, rng: np.random.Generator, integral: bool) -> np.ndarray:
    a = rng.integers(1, 9, size=(n, n)) if integral else rng.uniform(0.5, 2.0, size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


@settings(max_examples=300, deadline=None)
@given(path_collections(), st.integers(0, 2 ** 16))
def test_project_paths_matches_edge_set_reference(data, seed):
    p, x = data
    assert project_paths(p, x) == project_paths_ref(p, x)
    assert project_paths(p, frozenset(x)) == project_paths_ref(p, x)
    rng = stream(seed)
    exact = MetricSpace(n=p.n, dist=_symmetric(p.n, rng, integral=True), root=p.root)
    assert project_paths(p, x, exact) == project_paths_ref(p, x, exact)
    floats = MetricSpace(n=p.n, dist=_symmetric(p.n, rng, integral=False), root=p.root)
    assert project_paths(p, x, floats) == pytest.approx(project_paths_ref(p, x, floats),
                                                        rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(path_collections())
def test_edge_keys_rows_are_the_path_steps(data):
    p, _ = data
    keys = p.edge_keys
    assert keys.dtype == np.int64 and not keys.flags.writeable
    for v, path in enumerate(path_tuples(p)):
        steps = [min(a, b) * p.n + max(a, b) for a, b in zip(path, path[1:])]
        assert keys[v].tolist() == steps + [-1] * (keys.shape[1] - len(steps))


@st.composite
def spanning_trees(draw):
    """Any rooted tree: each vertex after the first of a random order hangs
    below an earlier one, and the first is the root."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    parent = [0] * n
    parent[order[0]] = order[0]
    for i in range(1, n):
        parent[order[i]] = order[draw(st.integers(0, i - 1))]
    return SpanningTree(root=order[0], parent=tuple(parent), edge_cost=(0.0,) * n)


@settings(max_examples=200, deadline=None)
@given(spanning_trees())
@example(SpanningTree(root=1999, parent=(*range(1, 2000), 1999), edge_cost=(0.0,) * 2000))
def test_tree_to_path_collection_matches_the_root_walks(t):
    p = tree_to_path_collection(t)
    assert p.root == t.root and p.paths.dtype == np.int64 and not p.paths.flags.writeable
    assert np.array_equal(p.paths, tree_paths_ref(t))


def test_projection_of_a_collection_with_a_shortcut(lps_5_13, lps_5_13_metric):
    # one path skips a vertex, so the collection is no tree's
    g, _ = lps_5_13
    spt = tree_to_path_collection(bfs_tree(g, 0))
    paths = path_tuples(spt)
    v = next(v for v, path in enumerate(paths) if len(path) >= 3)
    paths[v] = (v,) + paths[v][2:]
    shortcut = collection_ref(spt.root, paths)
    rng = stream(31, 0)
    for _ in range(50):
        x = {v, 0, *(int(u) for u in rng.choice(g.n, size=12, replace=False))}
        for m in (None, lps_5_13_metric):
            assert project_paths(shortcut, x, m) == project_paths_ref(shortcut, x, m)
    assert project_paths(shortcut, {v}) == len(paths[v]) - 1


@st.composite
def regular_graphs(draw):
    """A 2k-regular multigraph: the union of k permutations' (i, pi(i))
    edges. Fixed points are self-loops, 2-cycles are parallel edges."""
    n = draw(st.integers(1, 12))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    return Graph(n=n, edges=[(i, int(pi[i])) for pi in perms for i in range(n)])


@st.composite
def irregular_graphs(draw):
    """A path through every vertex plus random extra edges."""
    n = draw(st.integers(2, 12))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=15))
    return Graph(n=n, edges=[(i, i + 1) for i in range(n - 1)] + extra)


@settings(max_examples=150, deadline=None)
@given(st.one_of(regular_graphs(), irregular_graphs()), st.integers(0, 40),
       st.integers(0, 2 ** 16))
def test_random_walk_matches_per_step_reference(g, t, seed):
    w = random_walk(g, t, stream(seed, 1))
    assert w.dtype == np.int64 and w.shape == (t + 1,)
    assert tuple(w.tolist()) == random_walk_ref(g, t, stream(seed, 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(regular_graphs(), irregular_graphs()), st.integers(0, 40),
       st.integers(0, 2 ** 16), st.lists(st.integers(0, 2 ** 16), max_size=6))
def test_walk_block_rows_are_the_lone_walks(g, t, seed, trials):
    # the trial engine's input: bulk slot draws on a regular graph, else generators
    generators = [stream(seed, WALK, trial) for trial in trials]
    bounds = slot_bounds(g, t)
    block = walk_block(g, t, generators if bounds is None
                       else draw_rows(seed, WALK, trials, bounds))
    assert block.shape == (len(trials), t + 1) and block.dtype == np.int64
    for row, trial in zip(block.tolist(), trials):
        assert row == random_walk(g, t, stream(seed, WALK, trial)).tolist()
        assert tuple(row) == random_walk_ref(g, t, stream(seed, WALK, trial))
    if bounds is not None:  # generators walk a regular graph the same way
        again = walk_block(g, t, [stream(seed, WALK, trial) for trial in trials])
        assert again.tolist() == block.tolist()
    else:
        with pytest.raises(ValueError, match="need a regular graph"):
            walk_block(g, t, np.zeros((1, t + 1), dtype=np.int64))


def test_random_walk_matches_reference_on_lps(lps_5_13):
    g, _ = lps_5_13
    assert g.neighbor_table is not None
    for i in range(200):
        assert tuple(random_walk(g, 16, stream(5, i)).tolist()) == \
            random_walk_ref(g, 16, stream(5, i))


@settings(max_examples=200, deadline=None)
@given(st.one_of(regular_graphs(), irregular_graphs()), st.integers(1, 30),
       st.integers(0, 2 ** 16), st.data())
def test_is_good_walk_matches_step_loop_reference(g, t, seed, data):
    w = random_walk(g, t, stream(seed, 2))
    # each vertex's first step: a graph neighbour, itself or any vertex, so F
    # ranges over edges walked, self-steps and steps no walk takes
    root = data.draw(st.integers(0, g.n - 1))
    paths = tuple(() if v == root else (v, data.draw(st.integers(0, g.n - 1)), root)
                  for v in range(g.n))
    p = collection_ref(root, paths)
    cfg = SteinerAdversaryConfig(t=t, bad_edge_fraction=data.draw(st.floats(0, 1)),
                                 distinct_fraction=data.draw(st.floats(0, 1)))
    assert is_good_walk(w, p, cfg) == is_good_walk_ref(tuple(w.tolist()), first_edges_ref(p),
                                                       cfg)


@settings(max_examples=200, deadline=None)
@given(st.lists(path_collections(), min_size=1, max_size=3), st.integers(1, 12), st.data())
def test_block_kernels_match_the_per_walk_references(collections, t, data):
    # collections of one n, rows of arbitrary vertices: the good-walk test
    # and the projection read the path tables, not the graph
    n = collections[0][0].n
    collections = [p for p, _ in collections if p.n == n]
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=t + 1, max_size=t + 1),
                              max_size=5))
    walks = np.array(rows, dtype=np.int64).reshape(len(rows), t + 1)
    pick = np.array(data.draw(st.lists(st.integers(0, len(collections) - 1),
                                       min_size=len(rows), max_size=len(rows))), dtype=np.int64)
    cfg = SteinerAdversaryConfig(t=t, bad_edge_fraction=data.draw(st.floats(0, 1)),
                                 distinct_fraction=data.draw(st.floats(0, 1)))
    firsts = np.stack([p.first_steps for p in collections])
    good, bad, distinct = good_walks(walks, firsts[pick[:, None], walks], cfg)
    metric = MetricSpace(n=n, dist=_symmetric(n, stream(t), integral=True), root=0)
    keys = stack_edge_keys(collections)
    costs = project_path_rows(keys, pick, walks)
    metric_costs = project_path_rows(keys, pick, walks, metric)
    for i, row in enumerate(rows):
        p = collections[pick[i]]
        ref = is_good_walk_ref(row, first_edges_ref(p), cfg)
        assert (bool(good[i]), int(bad[i]), int(distinct[i])) == ref
        assert costs[i] == project_paths_ref(p, row)
        assert metric_costs[i] == project_paths_ref(p, row, metric)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.booleans(), st.data())
def test_project_tour_rows_adds_the_legs_as_project_tour(n, count, integral, data):
    root = data.draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != root]
    tours = [TourOrder(root=root, order=tuple(data.draw(st.permutations(others))))
             for _ in range(count)]
    width = data.draw(st.integers(0, 8))
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=width, max_size=width),
                              max_size=5))
    xs = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    pick = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=len(rows),
                                       max_size=len(rows))), dtype=np.int64)
    m = MetricSpace(n=n, dist=_symmetric(n, stream(n, width), integral), root=root)
    costs = project_tour_rows(*tour_tables(tours), pick, xs, m)
    for i, row in enumerate(rows):
        assert costs[i] == project_tour_ref(tours[pick[i]], m, set(row))
        assert project_tour(tours[pick[i]], m, row) == costs[i]


def _closed_metric(n: int, root: int, rng: np.random.Generator, integral: bool) -> MetricSpace:
    """Shortest-path closure of random symmetric weights: small integers,
    which tie often, or floats."""
    d = _symmetric(n, rng, integral).astype(np.float64)
    if integral:
        d = np.minimum(d, 3.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return MetricSpace(n=n, dist=d, root=root)


@st.composite
def oracle_instances(draw):
    """A metric on up to 16 points, integral or float, any root, and X of
    any size up to both caps, the root possibly in it."""
    n = draw(st.integers(1, 16))
    root = draw(st.integers(0, n - 1))
    m = _closed_metric(n, root, stream(draw(st.integers(0, 2 ** 16))), draw(st.booleans()))
    cap = min(DEFAULT_BUDGET.steiner_terminals - 1, DEFAULT_BUDGET.tsp_terminals)
    x = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=cap))
    return m, x


@settings(max_examples=150, deadline=None)
@given(oracle_instances())
def test_oracle_tables_match_the_loop_references(instance):
    m, x = instance
    cost, edges = steiner_exact_witness(m, x)
    assert (cost, edges) == steiner_exact_ref(m, x)
    assert steiner_exact(m, x) == cost
    assert tsp_exact_witness(m, x) == tsp_exact_ref(m, x)


@pytest.mark.parametrize("integral", [True, False])
def test_oracle_tables_match_the_loop_references_at_the_caps(integral):
    m = _closed_metric(16, 0, stream(41, int(integral)), integral)
    steiner_x = range(1, DEFAULT_BUDGET.steiner_terminals)
    cost, edges = steiner_exact_witness(m, steiner_x)
    assert (cost, edges) == steiner_exact_ref(m, steiner_x)
    tsp_x = range(1, DEFAULT_BUDGET.tsp_terminals + 1)
    assert tsp_exact_witness(m, tsp_x) == tsp_exact_ref(m, tsp_x)


def _with_twins(m: MetricSpace, twins: list[tuple[int, int]]) -> MetricSpace:
    """``m`` with point b moved onto point a for each (a, b): b copies a's
    distances and sits at distance 0 from it, still a (pseudo)metric."""
    d = np.array(m.dist)
    for a, b in twins:
        if a != b:
            d[b, :], d[:, b] = d[a, :], d[a, :]
            d[b, b] = d[a, b] = d[b, a] = 0
    return MetricSpace(n=m.n, dist=d, root=m.root)


@st.composite
def table_instances(draw):
    """k = 1..11 distinct terminals in any order on a metric of k..k+4
    points, integral or float, with twin points at distance 0."""
    k = draw(st.integers(1, 11))
    n = draw(st.integers(k, k + 4))
    m = _closed_metric(n, 0, stream(draw(st.integers(0, 2 ** 16))), draw(st.booleans()))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    m = _with_twins(m, draw(st.lists(pairs, max_size=3)))
    return m, draw(st.permutations(range(n)))[:k]


@settings(max_examples=200, deadline=None)
@given(table_instances())
def test_steiner_table_levels_match_the_per_subset_reference(instance):
    m, terminals = instance
    table = steiner_table(m, terminals)
    assert table.tobytes() == steiner_table_ref(m, terminals).tobytes()


@pytest.mark.parametrize("k", range(2, 12))
def test_steiner_table_levels_match_the_per_subset_reference_at_every_k(k):
    m = _with_twins(_closed_metric(14, 3, stream(44, k), integral=k % 2 == 0), [(1, 2)])
    terminals = [*range(k - 1, -1, -1)]  # the twins among them from k = 3
    assert steiner_table(m, terminals).tobytes() == steiner_table_ref(m, terminals).tobytes()


def _hst_fields(h):
    return h.beta, h.top, h.centers.tolist(), h.leaf.tolist()


class _FixedBeta:
    """A generator whose beta draw is fixed, so that radii beta * 2^(L-1)
    can equal integral distances; the permutation is drawn as usual."""

    def __init__(self, beta: float, seed: int) -> None:
        self.beta, self.rng = beta, stream(seed, 1)

    def uniform(self, low: float, high: float) -> float:
        return self.beta

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)


@settings(max_examples=200, deadline=None)
@example(n=1, integral=False, beta=None, seed=0)
@example(n=2, integral=False, beta=None, seed=0)
@example(n=2, integral=True, beta=1.0, seed=1)
@given(st.integers(1, 24), st.booleans(), st.sampled_from([None, 1.0, 1.5]),
       st.integers(0, 2 ** 16))
def test_frt_sample_matches_the_carving_loop(n, integral, beta, seed):
    # integral metrics tie often, so first-in-pi choices matter, and with
    # beta 1 or 1.5 some distances sit exactly on a radius
    m = _closed_metric(n, 0, stream(seed), integral)

    def rng():
        return stream(seed, 1) if beta is None else _FixedBeta(beta, seed)

    h = frt_sample(m, rng())
    assert _hst_fields(h) == frt_sample_ref(m, rng()).tables(len(h.centers))


@pytest.mark.parametrize("n", [2, 5])
def test_frt_sample_refuses_duplicate_points(n):
    # the carving loop never parts two points at distance 0; it would not end
    m = _with_twins(_closed_metric(n, 0, stream(45, n), integral=True), [(0, n - 1)])
    with pytest.raises(ValueError, match=f"points 0 and {n - 1} are at distance 0"):
        frt_sample(m, stream(45))
    with pytest.raises(ValueError, match=f"points 0 and {n - 1} are at distance 0"):
        frt_samples(m, [stream(45, t) for t in range(3)])


@st.composite
def frt_batches(draw):
    """A Euclidean, integral, float or graph (int32) metric on 1..24 points
    with any root, and the betas of a batch of trees: None draws beta, and
    1 or 1.5 puts radii beta * 2^(L-1) on integral distances."""
    n = draw(st.integers(1, 24))
    root = draw(st.integers(0, n - 1))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from(["euclidean", "integral", "float", "graph"]))
    if kind == "euclidean":
        m = random_euclidean_metric(n, stream(seed), root=root)
    elif kind == "graph":
        chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=n))
        m = shortest_path_metric(Graph(n=n, edges=[(v - 1, v) for v in range(1, n)] + chords),
                                 root)
    else:
        m = _closed_metric(n, root, stream(seed), kind == "integral")
    betas = draw(st.lists(st.sampled_from([None, 1.0, 1.5]), min_size=1, max_size=4))
    return m, betas, seed


@settings(max_examples=200, deadline=None)
@example(batch=(MetricSpace(n=1, dist=np.zeros((1, 1)), root=0), [None, 1.0], 0))
@example(batch=(MetricSpace(n=2, dist=np.array([[0.0, 1.0], [1.0, 0.0]]), root=1),
                [1.0, None, 1.5], 3))
@given(frt_batches())
def test_frt_batch_matches_the_per_tree_references(batch):
    m, betas, seed = batch

    def rngs():
        return [stream(seed, 1, t) if b is None else _FixedBeta(b, seed + t)
                for t, b in enumerate(betas)]

    hsts, refs = frt_samples(m, rngs()), [frt_sample_ref(m, rng) for rng in rngs()]
    trees = hsts_to_spanning_trees(hsts, m)
    for h, ref, tree, dist in zip(hsts, refs, trees, hst_distances(hsts), strict=True):
        assert _hst_fields(h) == ref.tables(len(h.centers))
        want = hst_to_spanning_tree_ref(ref, m)
        assert tree.root == want.root and np.array_equal(tree.parent, want.parent)
        assert np.array_equal(tree.edge_cost, want.edge_cost)
        assert dist.tobytes() == ref.distances().tobytes()
    tol = 1e-12 * max(1.0, float(m.dist.max()))
    assert hsts_dominate(hsts, m).tolist() == [bool((ref.distances() >= m.dist - tol).all())
                                               for ref in refs]

    # the spanning trees' distances in one pass, and their stretch summed in tree order
    parents, costs = [t.parent for t in trees], [t.edge_cost for t in trees]
    total = np.zeros((m.n, m.n))
    for p, c, dist in zip(parents, costs, tree_distances(parents, costs, range(m.n))):
        want = tree_distances_ref(p, c, range(m.n))
        assert dist.tobytes() == want.tobytes()
        total += want
    if m.n > 1:
        upper = np.triu_indices(m.n, 1)
        ratios = (total / len(trees))[upper] / m.dist[upper]
        assert stretch_stats(m, trees) == {"max_pair_stretch": float(ratios.max()),
                                           "mean_pair_stretch": float(ratios.mean())}


@st.composite
def tree_instances(draw):
    """A parent map with float weights: a path of depth n - 1, a star, a
    random tree, or an FRT tree whose leaves sit at different levels; the
    root is its own parent or -1, and the points any subset, repeats allowed."""
    kind = draw(st.sampled_from(["path", "star", "random", "hst"]))
    n = draw(st.integers(1, 24))
    rng = stream(draw(st.integers(0, 2 ** 16)))
    if kind == "hst":
        h = hst_nodes(frt_sample(_closed_metric(n, 0, rng, draw(st.booleans())), rng))
        parent = [nd.parent for nd in h.nodes]
        weight = [nd.parent_weight for nd in h.nodes]
        nodes = list(h.leaf_of) + draw(st.lists(st.integers(0, len(parent) - 1), max_size=4))
    else:
        if kind == "path":
            parent = [-1, *range(n - 1)]
        elif kind == "star":
            parent = [-1] + [0] * (n - 1)
        else:
            parent = [-1] + [int(rng.integers(v)) for v in range(1, n)]
        weight = rng.uniform(0.0, 3.0, size=n).tolist()
        nodes = list(range(n))
    if draw(st.booleans()):
        parent[0] = 0
    points = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=16))
    return parent, weight, points


@settings(max_examples=300, deadline=None)
@given(tree_instances())
def test_tree_distances_match_the_step_up_reference(data):
    parent, weight, points = data
    got = tree_distances(parent, weight, points)
    assert got.tobytes() == tree_distances_ref(parent, weight, points).tobytes()
