"""Parity of the per-trial kernels with their loop references.

``project_paths`` reads ``PathCollection.edge_keys``, ``random_walk`` reads
a flat view of the neighbour table and ``is_good_walk`` counts in one pass;
each must give exactly what the loops in ``kernels_ref`` give.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kernels_ref import is_good_walk_ref, project_paths_ref, random_walk_ref
from univlb.adversary import SteinerAdversaryConfig, is_good_walk
from univlb.graphs import Graph
from univlb.metric import MetricSpace
from univlb.rng import stream
from univlb.solutions import PathCollection, bfs_tree, project_paths, tree_to_path_collection
from univlb.walks import random_walk


@st.composite
def path_collections(draw):
    """Any path collection, not only a tree's: p_v runs from v to the root
    through arbitrary vertices, repeats and self-steps included. X may be
    empty and may hold the root."""
    n = draw(st.integers(1, 10))
    root = draw(st.integers(0, n - 1))
    paths = tuple(
        draw(st.sampled_from([(), (root,)])) if v == root
        else (v, *draw(st.lists(st.integers(0, n - 1), max_size=6)), root)
        for v in range(n))
    x = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return PathCollection(root=root, paths=paths), x


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
    for v, path in enumerate(p.paths):
        steps = [min(a, b) * p.n + max(a, b) for a, b in zip(path, path[1:])]
        assert keys[v].tolist() == steps + [-1] * (keys.shape[1] - len(steps))


def test_projection_of_a_collection_with_a_shortcut(lps_5_13, lps_5_13_metric):
    # one path skips a vertex, so the collection is no tree's
    g, _ = lps_5_13
    spt = tree_to_path_collection(bfs_tree(g, 0))
    paths = list(spt.paths)
    v = next(v for v, path in enumerate(paths) if len(path) >= 3)
    paths[v] = (v,) + paths[v][2:]
    shortcut = PathCollection(root=spt.root, paths=tuple(paths))
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
    assert w.vertices == random_walk_ref(g, t, stream(seed, 1))


def test_random_walk_matches_reference_on_lps(lps_5_13):
    g, _ = lps_5_13
    assert g.neighbor_table is not None
    for i in range(200):
        assert random_walk(g, 16, stream(5, i)).vertices == random_walk_ref(g, 16, stream(5, i))


@settings(max_examples=200, deadline=None)
@given(st.one_of(regular_graphs(), irregular_graphs()), st.integers(1, 30),
       st.integers(0, 2 ** 16), st.data())
def test_is_good_walk_matches_step_loop_reference(g, t, seed, data):
    w = random_walk(g, t, stream(seed, 2))
    steps = sorted({(min(a, b), max(a, b)) for a, b in g.edges.tolist()})
    F = frozenset(data.draw(st.lists(st.sampled_from(steps), unique=True)))
    cfg = SteinerAdversaryConfig(t=t, bad_edge_fraction=data.draw(st.floats(0, 1)),
                                 distinct_fraction=data.draw(st.floats(0, 1)))
    assert is_good_walk(w, F, cfg) == is_good_walk_ref(w, F, cfg)
