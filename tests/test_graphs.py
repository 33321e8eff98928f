from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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


def test_bfs_parents_shortest(petersen):
    # the BFS scans CSR rows in order, so they must be sorted
    assert petersen.adjacency.has_sorted_indices
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
    assert multi.adjacency.has_sorted_indices
    dist, parent = bfs_parents(multi, 0)
    assert dist.tolist() == [0, 1, 1, 2]
    assert parent.tolist() == [0, 0, 0, 1]


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
    assert g2.edges == petersen.edges
    assert path.read_text().splitlines()[0] == "10 15"


def test_read_graph_bad_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1\n")
    with pytest.raises(GraphError):
        read_graph(p)
