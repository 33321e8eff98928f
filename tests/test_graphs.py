from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb.expanders import lps_graph
from univlb.graphs import (
    Graph,
    GraphError,
    bfs_parents,
    bipartition,
    diameter_ecc,
    girth,
    is_connected,
    read_graph,
    write_graph,
)

from oracles_brute import girth_brute


def test_edge_endpoints_validated():
    with pytest.raises(GraphError):
        Graph(n=3, edges=((0, 3),))


@pytest.mark.parametrize("edges", [((0, 1), (1, 2)), [[0, 1], [1, 2]], [(0, 1), [1, 2]],
                                   (), [], np.array([[0, 1], [1, 2]], dtype=np.int32)])
def test_graph_stores_edges_as_read_only_int64_array(edges):
    g = Graph(n=3, edges=edges)
    assert g.edges.dtype == np.int64
    assert g.edges.shape == (len(edges), 2) == (g.m, 2)
    assert g.edges.tolist() == [list(e) for e in edges]
    with pytest.raises(ValueError):
        g.edges[:] = 0


def test_graph_leaves_the_callers_array_writable():
    e = np.array([[0, 1], [1, 2]])
    g = Graph(n=3, edges=e)
    e[0, 0] = 2
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_graph_copies_a_read_only_view_of_a_writable_array():
    e = np.array([[0, 1], [1, 2]])
    view = e.view()
    view.setflags(write=False)
    g = Graph(n=3, edges=view)
    e[0, 0] = 7  # out of range, were the view kept
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert not np.shares_memory(g.edges, e)


@pytest.mark.parametrize("edges, message", [
    (((0, 1), (1,)), "edges must be"),
    (((0, 1, 2),), r"shape \(m, 2\), got \(1, 3\)"),
    ((0, 1), r"shape \(m, 2\), got \(2,\)"),
    (np.zeros((0, 3), dtype=np.int64), r"got \(0, 3\)"),
    ((("a", "b"),), "must be integers"),
    (((0.7, 1.0),), "must be integers"),
])
def test_graph_refuses_edges_not_shaped_m_by_2(edges, message):
    with pytest.raises(GraphError, match=message):
        Graph(n=3, edges=edges)


def test_degrees_and_simple(k4):
    assert k4.degrees.tolist() == [3, 3, 3, 3]
    assert k4.simple
    assert not Graph(n=2, edges=((0, 1), (0, 1))).simple
    assert not Graph(n=2, edges=((1, 1),)).simple


def test_girth_examples(k4, petersen):
    assert girth(k4) == 3
    assert girth(petersen) == 5
    tree = Graph(n=4, edges=((0, 1), (1, 2), (1, 3)))
    assert girth(tree) is None
    assert girth(Graph(n=2, edges=((0, 1), (0, 1)))) == 2
    assert girth(Graph(n=1, edges=((0, 0),))) == 1


def test_girth_single_root_on_vertex_transitive(petersen):
    # Petersen is vertex-transitive: one root already finds the girth.
    assert girth(petersen, roots=(0,)) == 5


def test_girth_matches_enumeration_on_petersen(petersen):
    assert girth_brute(petersen.n, petersen.edges) == girth(petersen) == 5


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    return Graph(n=n, edges=tuple(picks))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_girth_matches_cycle_enumeration(g):
    assert girth(g) == girth_brute(g.n, g.edges)


def test_bfs_distances(path3, petersen):
    assert bfs_parents(path3, 0)[0].tolist() == [0, 1, 2]
    d = bfs_parents(petersen, 0)[0]
    assert d.max() == 2
    assert diameter_ecc(petersen) == 2


def test_levels_cached_and_read_only(petersen):
    assert petersen.levels is petersen.levels
    assert petersen.levels.tolist() == bfs_parents(petersen, 0)[0].tolist()
    with pytest.raises(ValueError):
        petersen.levels[0] = 5
    with pytest.raises(GraphError):
        diameter_ecc(Graph(n=3, edges=((0, 1),)))


def _rows_sorted(g: Graph) -> bool:
    indptr, indices = g.csr
    return all(indices[a:b].tolist() == sorted(indices[a:b].tolist())
               for a, b in zip(indptr[:-1], indptr[1:]))


def test_bfs_parents_shortest(petersen):
    # the BFS scans CSR rows in order, so they must be sorted
    assert _rows_sorted(petersen)
    dist, parent = bfs_parents(petersen, 0)
    for v in range(petersen.n):
        # walking up the parents must take exactly dist steps
        steps, u = 0, v
        while u != 0:
            u = int(parent[u])
            steps += 1
        assert steps == dist[v]

    # Multi-edges listed out of order: 3 is reached from both 1 and 2 and
    # takes the smaller index as its parent.
    multi = Graph(n=4, edges=((0, 2), (2, 3), (0, 2), (3, 2), (3, 1), (1, 0)))
    assert _rows_sorted(multi)
    dist, parent = bfs_parents(multi, 0)
    assert dist.tolist() == [0, 1, 1, 2]
    assert parent.tolist() == [0, 0, 0, 1]


def _sorted_rows_loop(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours, ascending, one entry per edge end."""
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        rows[u].append(v)
        rows[v].append(u)
    return [sorted(row) for row in rows]


def _bfs_parents_loop(g: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference BFS, one vertex at a time: each vertex scans its sorted
    neighbour row in index order and ties go to the earlier frontier vertex."""
    rows = _sorted_rows_loop(g)
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for w in rows[u]:
                if dist[w] < 0:
                    dist[w] = level
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return dist, parent


def _degrees_loop(g: Graph) -> np.ndarray:
    deg = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _simple_loop(g: Graph) -> bool:
    seen = set()
    for u, v in g.edges:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


@st.composite
def multigraph_edges(draw):
    """(n, pairs): edges in any order and orientation, with repeats and
    self-loops; n may exceed the touched vertices (isolated, disconnected)."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=30))


@settings(max_examples=300, deadline=None)
@given(multigraph_edges())
def test_graph_arrays_match_loop_references(n_pairs):
    n, pairs = n_pairs
    g = Graph(n=n, edges=tuple(pairs))
    assert g.degrees.tolist() == _degrees_loop(g).tolist()
    assert g.simple == _simple_loop(g)
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.m, 2) == (len(pairs), 2)
    assert g.edges.tolist() == [list(e) for e in pairs]
    indptr, indices = g.csr
    assert [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == _sorted_rows_loop(g)
    for source in range(g.n):
        dist, parent = bfs_parents(g, source)
        ref_dist, ref_parent = _bfs_parents_loop(g, source)
        assert dist.tolist() == ref_dist.tolist()
        assert parent.tolist() == ref_parent.tolist()


def _girth_loop(g: Graph, roots: tuple[int, ...] | None = None) -> int | None:
    """Reference girth: a truncated BFS from every root with a dict of
    parents, one vertex and one neighbour at a time; a non-tree edge (u, w)
    met from the frontier offers the cycle dist[u] + dist[w] + 1."""
    if not g.simple:
        u, v = g.edges.T
        return 1 if np.any(u == v) else 2

    indptr, indices = g.csr
    best: int | None = None
    scan = range(g.n) if roots is None else roots
    dist = np.empty(g.n, dtype=np.int64)
    for root in scan:
        dist.fill(-1)
        dist[root] = 0
        parent = {root: -1}
        frontier = [root]
        depth = 0
        while frontier:
            # Expanding a frontier at depth L yields candidates of length >= 2L.
            if best is not None and 2 * depth >= best:
                break
            depth += 1
            nxt = []
            for u in frontier:
                du = dist[u]
                for w in indices[indptr[u]:indptr[u + 1]]:
                    if dist[w] < 0:
                        dist[w] = du + 1
                        parent[int(w)] = u
                        nxt.append(int(w))
                    elif parent[u] != w:
                        cand = int(du + dist[w] + 1)
                        if best is None or cand < best:
                            best = cand
            frontier = nxt
    return best


@st.composite
def forests(draw):
    """Acyclic graphs: each vertex after the first hangs off an earlier
    one or starts a new tree."""
    n = draw(st.integers(1, 12))
    return Graph(n=n, edges=tuple((v, draw(st.integers(0, v - 1))) for v in range(1, n)
                                  if draw(st.booleans())))


@st.composite
def disjoint_unions(draw):
    a, b = draw(small_graphs()), draw(small_graphs())
    return Graph(n=a.n + b.n, edges=a.edges.tolist() + (b.edges + a.n).tolist())


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), forests(), disjoint_unions(),
                 multigraph_edges().map(lambda n_pairs: Graph(n=n_pairs[0],
                                                              edges=tuple(n_pairs[1])))))
def test_girth_matches_dict_bfs_reference(g):
    # simple, acyclic, disconnected and multigraphs; all roots, then each alone
    assert girth(g) == _girth_loop(g)
    for root in range(g.n):
        assert girth(g, roots=(root,)) == _girth_loop(g, roots=(root,))


@pytest.mark.parametrize("p, q, roots", [(13, 5, None), (5, 13, (0,)), (5, 13, (7, 1000))])
def test_girth_matches_dict_bfs_reference_on_lps(p, q, roots):
    g, _ = lps_graph(p, q)
    assert girth(g, roots) == _girth_loop(g, roots)


def test_graph_arrays_on_edgeless_graph():
    g = Graph(n=3, edges=())
    assert g.edges.shape == (0, 2)
    assert g.degrees.tolist() == [0, 0, 0]
    assert g.simple
    assert bfs_parents(g, 1)[0].tolist() == [-1, 0, -1]
    with pytest.raises(ValueError):
        g.edges[:] = 0


def test_connectivity():
    assert is_connected(Graph(n=1, edges=()))
    assert not is_connected(Graph(n=2, edges=()))


def test_bipartition(k4, cycle4):
    assert bipartition(k4) is None
    color = bipartition(cycle4)
    assert color is not None
    assert color[0] != color[1]
    # multi-edges keep a graph bipartite; a self-loop is an odd cycle
    assert bipartition(Graph(n=2, edges=((0, 1), (1, 0)))).tolist() == [0, 1]
    assert bipartition(Graph(n=2, edges=((0, 1), (1, 1)))) is None


def test_graph_roundtrip(tmp_path, petersen):
    path = tmp_path / "g.txt"
    write_graph(petersen, path)
    g2 = read_graph(path)
    assert g2.n == petersen.n
    assert np.array_equal(g2.edges, petersen.edges)
    assert path.read_text().splitlines()[0] == "10 15"


def test_graph_roundtrip_multi_edges(tmp_path):
    g = Graph(n=5, edges=((3, 1), (1, 3), (2, 2), (0, 4), (3, 1)))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    back = read_graph(path)
    assert back.n == g.n and np.array_equal(back.edges, g.edges)
    assert back.edges.dtype == np.int64
    assert not back.simple
    assert back.degrees.tolist() == [1, 3, 2, 3, 1]


def test_read_graph_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1\n")
    with pytest.raises(GraphError):
        read_graph(p)
