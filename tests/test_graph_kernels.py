"""Parity of the graph layer's numpy CSR with its scipy references.

``Graph.csr`` replaces the scipy adjacency, ``Graph.neighbors`` rotates its
rows into the walk order, ``Graph.from_neighbor_rows`` takes the LPS
closure's sorted table as they are, ``walk_operator`` replaces the float
sparse product and ``_unit_all_pairs`` the boolean one; each must give
exactly what the references in ``kernels_ref`` give. The BFS, ``simple``,
``bipartition`` and ``girth`` read a regular graph's (n, d) table or its
edges instead of per-entry row arrays, and the LPS closure multiplies its
queue in chunks; both must keep the references' answers bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kernels_ref import (
    adjacency_ref,
    bfs_parents_ref,
    bipartition_ref,
    cayley_graph_ref,
    girth_ref,
    neighbors_ref,
    simple_ref,
    unit_all_pairs_ref,
    walk_operator_ref,
)
from univlb import expanders
from univlb.expanders import lps_graph
from univlb.graphs import Graph, bfs_parents, bipartition, girth, is_connected, neighbor_slots
from univlb.metric import _unit_all_pairs
from univlb.walks import walk_operator

# the acceptance manifest's graphs, and two with multi-edges
LPS_GRAPHS = [(5, 13), (41, 13), (41, 17), (41, 29), (5, 29), (5, 41), (5, 61), (13, 5), (29, 5)]


@st.composite
def multigraphs(draw):
    """(n, pairs): edges in any order and orientation, with repeats and
    self-loops; n may exceed the touched vertices (isolated vertices)."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=30))


@st.composite
def regular_multigraphs(draw):
    """A 2k-regular multigraph: the union of k permutations' (i, pi(i))
    edges. Fixed points are self-loops, 2-cycles are parallel edges."""
    n = draw(st.integers(1, 12))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    return Graph(n=n, edges=[(i, int(pi[i])) for pi in perms for i in range(n)])


def _canonical(g: Graph) -> Graph:
    """The same multigraph with its edges as sorted pairs (u <= v), ascending."""
    return Graph(n=g.n, edges=sorted((min(u, v), max(u, v)) for u, v in g.edges.tolist()))


def _rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def _check_csr_and_walk_rows(g: Graph) -> None:
    canon = _canonical(g)
    indptr, indices = g.csr
    # the sorted rows of the walk rows built from the sorted edge list
    assert _rows(indptr, indices) == [sorted(row) for row in _rows(*neighbors_ref(canon))]
    # and the scipy adjacency's rows, each entry repeated by its multiplicity
    adj = adjacency_ref(g)
    assert adj.has_sorted_indices
    assert indptr.tolist() == np.concatenate([[0], np.cumsum(adj.sum(axis=1).A1)]).tolist()
    assert indices.tolist() == np.repeat(adj.indices, adj.data).tolist()
    assert not indices.flags.writeable
    for graph in (g, canon):
        walk_indptr, walk = graph.neighbors
        ref_indptr, ref = neighbors_ref(canon)
        assert walk_indptr.tolist() == ref_indptr.tolist() and walk.tolist() == ref.tolist()
        assert not walk.flags.writeable


@settings(max_examples=300, deadline=None)
@example(n_pairs=(4, [(3, 3), (1, 3), (3, 1), (3, 3), (0, 3), (3, 2)]))
@example(n_pairs=(3, []))
@given(multigraphs())
def test_csr_and_walk_rows_match_the_edge_list_construction(n_pairs):
    n, pairs = n_pairs
    _check_csr_and_walk_rows(Graph(n=n, edges=pairs))


@settings(max_examples=300, deadline=None)
@example(n_pairs=(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]))  # C5: mixed rows
@given(multigraphs())
def test_bipartition_counts_as_the_sparse_product(n_pairs):
    n, pairs = n_pairs
    g = Graph(n=n, edges=[(i, i + 1) for i in range(n - 1)] + pairs)  # connected
    assert is_connected(g)
    color, ref = bipartition(g), bipartition_ref(g)
    assert (color is None and ref is None) or color.tolist() == ref.tolist()


@settings(max_examples=200, deadline=None)
@given(regular_multigraphs())
def test_from_neighbor_rows_reads_the_sorted_edge_list(g):
    d = g.regular_degree
    h = Graph.from_neighbor_rows(g.csr[1].reshape(g.n, d))
    assert h.edges.tolist() == _canonical(g).edges.tolist()
    assert h.csr[0].tolist() == g.csr[0].tolist() and h.csr[1].tolist() == g.csr[1].tolist()
    assert not h.csr[1].flags.writeable
    _check_csr_and_walk_rows(h)


def test_neighbor_slots_list_distinct_neighbours_and_multiplicities():
    g = Graph(n=4, edges=[(0, 1), (1, 0), (2, 2), (2, 1), (0, 1)])
    cols, mult = neighbor_slots(g)
    assert cols.T.tolist() == [[1, 4], [0, 2], [1, 2], [4, 4]]
    assert mult.T.tolist() == [[3, 0], [3, 1], [1, 2], [0, 0]]


def _products_equal(g: Graph, x: np.ndarray) -> None:
    ours = walk_operator(g)(x)
    ref = walk_operator_ref(g) @ x
    assert ours.dtype == np.float64 and ours.tobytes() == ref.tobytes()


# bounded, so that no sum of at most 8 terms overflows
finite = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None)
@given(regular_multigraphs(), st.data())
def test_walk_operator_products_match_the_sparse_product(g, data):
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]), finite)
    x = np.array(data.draw(st.lists(values, min_size=g.n, max_size=g.n)), dtype=np.float64)
    _products_equal(g, x)
    _products_equal(g, -x)
    # every term -0.0: the sparse sum starts from +0.0 and ends there
    _products_equal(g, np.full(g.n, -0.0))


@pytest.mark.parametrize("p, q", LPS_GRAPHS)
def test_lps_graphs_match_the_unique_path_and_the_sparse_product(p, q):
    g, cert = lps_graph(p, q)
    ref = cayley_graph_ref(p, q)
    assert np.array_equal(g.edges, ref.edges)
    assert g.simple == cert.simple == ref.simple
    assert np.array_equal(g.csr[1], ref.csr[1]) and np.array_equal(g.csr[0], ref.csr[0])
    assert np.array_equal(g.neighbors[1], neighbors_ref(ref)[1])
    x = np.random.default_rng(p * q).standard_normal(g.n)
    x[::5] = -0.0
    x[1::5] = 0.0
    _products_equal(g, x)
    _products_equal(g, np.full(g.n, -0.0))


def _k2(n: int) -> Graph:
    """K_{2,n}: vertices 0 and 1 joined to each of 2..n+1."""
    return Graph(n=n + 2, edges=[(a, b) for a in (0, 1) for b in range(2, n + 2)])


@pytest.mark.parametrize("g", [
    _k2(300),  # 0 and 1 each reach 300 frontier vertices at once
    # -1 entries, a self-loop, a multi-edge and the isolated vertex 6
    Graph(n=7, edges=[(0, 1), (1, 2), (3, 4), (4, 4), (5, 3), (3, 4)]),
    Graph(n=3, edges=[]),
    Graph(n=1, edges=[]),
], ids=["k2_300", "disconnected", "edgeless", "single"])
def test_unit_all_pairs_matches_the_sparse_product(g):
    dist = _unit_all_pairs(g)
    assert dist.dtype == np.int32
    assert np.array_equal(dist, unit_all_pairs_ref(g))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_unit_all_pairs_matches_the_sparse_product_on_multigraphs(n_pairs):
    n, pairs = n_pairs
    g = Graph(n=n, edges=pairs)
    assert np.array_equal(_unit_all_pairs(g), unit_all_pairs_ref(g))


def test_unit_all_pairs_matches_the_sparse_product_on_lps(lps_5_13):
    g, _ = lps_5_13
    assert np.array_equal(_unit_all_pairs(g), unit_all_pairs_ref(g))


def _check_lean_kernels(g: Graph, roots) -> None:
    """Every kernel of an instance build against its reference: the BFS
    from each root, ``simple``, ``bipartition``, ``girth`` over ``roots``,
    the walk rows and the walk operator's bytes."""
    for root in roots:
        dist, parent = bfs_parents(g, root)
        ref_dist, ref_parent = bfs_parents_ref(g, root)
        assert dist.tolist() == ref_dist.tolist() and parent.tolist() == ref_parent.tolist()
    assert g.simple == simple_ref(g)
    if is_connected(g):
        color, ref = bipartition(g), bipartition_ref(g)
        assert (color is None and ref is None) or color.tolist() == ref.tolist()
    assert girth(g, roots=tuple(roots)) == girth_ref(g, roots=tuple(roots))
    assert g.neighbors[1].tolist() == neighbors_ref(_canonical(g))[1].tolist()
    x = np.random.default_rng(g.n).standard_normal(g.n)
    x[::3] = -0.0
    _products_equal(g, x)


# simple PGL and PSL graphs, the simple lps(13, 5) of q < 2 sqrt(p), and
# lps(29, 5), which has multi-edges
@pytest.mark.parametrize("p, q", [(5, 13), (41, 13), (13, 5), (29, 5)])
def test_lean_kernels_match_the_references_on_lps(p, q):
    g, _ = lps_graph(p, q)
    assert g.simple == ((p, q) != (29, 5))
    _check_lean_kernels(g, roots=(0, 1, g.n - 1))
    # the same graph with its csr built from the edge list
    _check_lean_kernels(Graph(n=g.n, edges=g.edges), roots=(0,))


@settings(max_examples=200, deadline=None)
@given(regular_multigraphs())
def test_lean_kernels_match_the_references_on_regular_multigraphs(g):
    _check_lean_kernels(g, roots=range(g.n))
    d = g.regular_degree
    _check_lean_kernels(Graph.from_neighbor_rows(g.csr[1].reshape(g.n, d)), roots=range(g.n))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_bfs_simple_and_girth_match_the_references_on_irregular_graphs(n_pairs):
    n, pairs = n_pairs
    g = Graph(n=n, edges=pairs)
    for root in range(n):
        dist, parent = bfs_parents(g, root)
        ref_dist, ref_parent = bfs_parents_ref(g, root)
        assert dist.tolist() == ref_dist.tolist() and parent.tolist() == ref_parent.tolist()
    assert g.simple == simple_ref(g)
    assert girth(g) == girth_ref(g)


# a pass takes CLOSURE_CHUNK // k elements, at least one: 1 gives one element
# a pass, and 100 passes of 2 to 16 elements that cut across BFS levels
@pytest.mark.parametrize("chunk", [1, 100])
@pytest.mark.parametrize("p, q", [(5, 13), (41, 13), (13, 5), (29, 5)])
def test_closure_chunks_keep_the_one_shot_numbering(monkeypatch, p, q, chunk):
    # against the level-at-once int64 closure of the reference
    monkeypatch.setattr(expanders, "CLOSURE_CHUNK", chunk)
    g, keys = expanders._cayley_graph(p, q)
    ref = cayley_graph_ref(p, q)
    assert keys.shape == (g.n,) and keys.dtype.kind == "u" and not keys.flags.writeable
    assert expanders._unpack(keys[:1], q).tolist() == [[1, 0, 0, 1]]
    assert len(np.unique(keys)) == g.n
    assert np.array_equal(g.edges, ref.edges)
    assert np.array_equal(g.csr[0], ref.csr[0]) and np.array_equal(g.csr[1], ref.csr[1])
    assert not g.edges.flags.writeable and not g.csr[1].flags.writeable
