from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernels_ref import hst_nodes
from univlb import frt
from univlb.frt import (
    frt_sample,
    frt_samples,
    hst_distances,
    hst_dominates,
    hst_to_spanning_tree,
    hsts_dominate,
    hsts_to_spanning_trees,
    stretch_stats,
    tree_distances,
)
from univlb.graphs import Graph
from univlb.metric import MetricSpace, random_euclidean_metric, shortest_path_metric
from univlb.rng import stream
from univlb.solutions import project_tree


def test_single_point():
    m = MetricSpace(n=1, dist=np.zeros((1, 1)), root=0)
    h = frt_sample(m, stream(1, 0))
    assert h.n == 1
    assert hst_distances([h])[0].tolist() == [[0.0]]


def test_two_point_bounds():
    for d0 in (0.5, 1.0, 5.0, 73.0):
        m = MetricSpace(n=2, dist=np.array([[0.0, d0], [d0, 0.0]]), root=0)
        for i in range(20):
            h = frt_sample(m, stream(2, i))
            dh = hst_distances([h])[0][0, 1]
            assert d0 <= dh <= 32.0 * d0
            t = hst_to_spanning_tree(h, m)
            assert t.total_cost == pytest.approx(d0)


def _path_walk_distance(parent, weight, u: int, v: int) -> float:
    """Reference tree distance: climb from u recording the cost to each
    ancestor, then climb from v to the first recorded one."""
    if u == v:
        return 0.0
    ancestors = {}
    x, acc = u, 0.0
    while True:
        ancestors[x] = acc
        if parent[x] < 0 or parent[x] == x:
            break
        acc += weight[x]
        x = parent[x]
    y, acc = v, 0.0
    while y not in ancestors:
        acc += weight[y]
        y = parent[y]
    return acc + ancestors[y]


def _reference_matrix(parent, weight, points) -> np.ndarray:
    return np.array([[_path_walk_distance(parent, weight, u, v) for v in points]
                     for u in points])


@st.composite
def random_trees(draw):
    """A randomly labelled tree with integer edge weights (zero included),
    so both distance routines add exactly; the root's parent is itself or -1."""
    n = draw(st.integers(1, 24))
    label = draw(st.permutations(range(n)))
    parent = [0] * n
    for i in range(1, n):
        parent[label[i]] = label[draw(st.integers(0, i - 1))]
    parent[label[0]] = draw(st.sampled_from([-1, label[0]]))
    weight = [float(draw(st.integers(0, 5))) for _ in range(n)]
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return parent, weight, points


@settings(max_examples=200, deadline=None)
@given(random_trees())
def test_tree_distances_match_path_walk(tree):
    parent, weight, points = tree
    for pts in (points, range(len(parent))):
        got = tree_distances(parent, weight, pts)
        assert np.array_equal(got, _reference_matrix(parent, weight, pts))


def test_tree_distances_deep_path():
    # 64-vertex path rooted at its far end: 63 levels, one LCA round per level
    n = 64
    parent = [v + 1 for v in range(n - 1)] + [n - 1]
    weight = [float(v % 3) for v in range(n)]
    got = tree_distances(parent, weight, range(n))
    assert np.array_equal(got, _reference_matrix(parent, weight, range(n)))
    assert got[0, n - 1] == sum(weight[:-1])


def test_hst_distances_match_path_walk():
    m = random_euclidean_metric(40, stream(12, 0))
    tol = 1e-12 * float(m.dist.max())
    for i in range(10):
        h = frt_sample(m, stream(12, 1, i))
        tree = hst_nodes(h)
        parent = [nd.parent for nd in tree.nodes]
        weight = [nd.parent_weight for nd in tree.nodes]
        ref = _reference_matrix(parent, weight, tree.leaf_of)
        assert np.abs(hst_distances([h])[0] - ref).max() <= tol


def test_domination_every_sample():
    m = random_euclidean_metric(24, stream(3, 0))
    for i in range(25):
        h = frt_sample(m, stream(3, 1, i))
        assert hst_dominates(h, m)


def test_leaves_are_singletons_and_cover():
    m = random_euclidean_metric(17, stream(4, 0))
    h = frt_sample(m, stream(4, 1))
    c, each = h.centers, np.arange(17)
    # a cluster is the points sharing a center, which is one of them; each
    # row refines the one above; v is alone from row leaf[v] on, not above
    assert (c[0] == c[0, 0]).all()
    for row in range(1, len(c)):
        assert (c[row, c[row]] == c[row]).all()
        assert (c[row - 1] == c[row - 1, c[row]]).all()
    sizes = (c[:, :, None] == c[:, None, :]).sum(axis=2)
    assert (sizes[h.leaf, each] == 1).all() and (c[h.leaf, each] == each).all()
    assert (sizes[np.maximum(h.leaf - 1, 0), each] > 1).all()
    tree = hst_nodes(h)
    assert sorted(tree.nodes[tree.leaf_of[v]].members[0] for v in range(17)) == list(range(17))
    for node in tree.nodes:
        if node.children:
            got = sorted(v for c in node.children for v in tree.nodes[c].members)
            assert got == sorted(node.members)
        else:
            assert len(node.members) == 1
            assert h.top - node.level == h.leaf[node.members[0]]


def test_contracted_tree_cost_bounded():
    m = random_euclidean_metric(40, stream(5, 0))
    for i in range(15):
        h = frt_sample(m, stream(5, 1, i))
        t = hst_to_spanning_tree(h, m)
        assert t.root == m.root
        assert t.total_cost <= h.total_weight + 1e-9
        # spans every point
        assert len(t.parent) == m.n


def test_mean_stretch_within_logn_budget(petersen):
    # 64-point random metric, many samples; flag if mean stretch exceeds 8 ln n
    m = random_euclidean_metric(64, stream(6, 0))
    trees = [hst_to_spanning_tree(frt_sample(m, stream(6, 1, i)), m) for i in range(60)]
    st_stats = stretch_stats(m, trees)
    assert st_stats["mean_pair_stretch"] <= 8 * math.log(64)
    assert st_stats["max_pair_stretch"] >= st_stats["mean_pair_stretch"] >= 1.0 - 1e-9


def test_tree_projection_consistency(petersen):
    m = shortest_path_metric(petersen, 0)
    h = frt_sample(m, stream(7, 0))
    t = hst_to_spanning_tree(h, m)
    full = project_tree(t, set(range(1, 10)))
    assert full == pytest.approx(t.total_cost)


def _hst_subtree_cost(h, terminals) -> float:
    """Weight of the minimal HST subtree spanning the given leaves."""
    keep: set[int] = set()
    for v in terminals:
        node = h.leaf_of[v]
        while node >= 0 and node not in keep:
            keep.add(node)
            node = h.nodes[node].parent
    # prune to the union of leaf-to-LCA paths: drop weights above the
    # shallowest node common to all paths (the subtree root)
    total = sum(h.nodes[i].parent_weight for i in keep)
    node = h.leaf_of[next(iter(terminals))]
    common = []
    while node >= 0:
        common.append(node)
        node = h.nodes[node].parent
    counts = {i: 0 for i in common}
    for v in terminals:
        node = h.leaf_of[v]
        while node >= 0:
            if node in counts:
                counts[node] += 1
            node = h.nodes[node].parent
    k = len(set(terminals))
    for i in common:
        if counts[i] == k and i != h.root:
            total -= h.nodes[i].parent_weight
    return total


def test_tree_ratio_within_hst_ratio():
    # the contracted tree never charges more on X than the HST subtree does
    m = random_euclidean_metric(64, stream(8, 0))
    for i in range(10):
        h = frt_sample(m, stream(8, 1, i))
        t = hst_to_spanning_tree(h, m)
        xr = stream(8, 2, i)
        x = set(int(v) for v in xr.choice(range(1, 64), size=6, replace=False))
        tree_cost = project_tree(t, x)
        hst_cost = _hst_subtree_cost(hst_nodes(h), x | {m.root})
        assert tree_cost <= hst_cost + 1e-9
        assert tree_cost <= 2.0 * hst_cost + 1e-9


def _tables(h):
    return h.beta, h.top, h.centers.tobytes(), h.leaf.tobytes()


def test_batches_of_any_size_give_the_same_trees_and_checks(monkeypatch):
    m = random_euclidean_metric(20, stream(13, 0))

    def run():
        hsts = frt_samples(m, [stream(13, 1, t) for t in range(7)])
        trees = hsts_to_spanning_trees(hsts, m)
        return ([_tables(h) for h in hsts], hsts_dominate(hsts, m).tolist(),
                [t.parent.tolist() for t in trees], stretch_stats(m, trees))

    whole = run()
    # distances in batches of 1, then of 3, 3 and 1 trees; the carving's
    # float64 cells of 9 bytes take 1, then 5 and 2 trees a batch
    for trees in (1, 3):
        monkeypatch.setattr(frt, "CHUNK_BYTES", trees * m.n * m.n * frt._DIST_BYTES)
        assert run() == whole


def test_a_batch_holds_the_byte_cap_of_distances():
    # 400 points of int32: one tree's distances in pi order and bool mask
    # take 800 KB, so the cap admits 2 of the 8 trees at a time
    n = 400
    m = shortest_path_metric(Graph(n=n, edges=[(v, (v + 1) % n) for v in range(n)]
                                   + [(v, (7 * v + 3) % n) for v in range(n)]), 0)
    assert m.dist.dtype == np.int32
    tracemalloc.start()
    try:
        hsts = frt_samples(m, [stream(14, t) for t in range(8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hsts) == 8
    assert peak < 1.5 * frt.CHUNK_BYTES < 8 * n * n * (m.dist.itemsize + 1)


def test_total_weight_sums_the_node_weights():
    m = random_euclidean_metric(30, stream(15, 0))
    for h in frt_samples(m, [stream(15, 1, t) for t in range(5)]):
        weights = sum(nd.parent_weight for nd in hst_nodes(h).nodes)
        assert h.total_weight == pytest.approx(weights, rel=1e-12, abs=0)
