from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb.expanders import legendre_symbol, lps_graph, lps_metric
from univlb.graphs import Graph, GraphError, bfs_parents
from univlb.metric import (
    FLOAT_TOL,
    MetricSpace,
    MetricViolation,
    random_euclidean_metric,
    random_uniform_metric,
    read_metric,
    shortest_path_metric,
    validate_metric,
    write_metric,
)
from univlb.rng import stream


def test_path_distances(path3):
    m = shortest_path_metric(path3, 0)
    assert m.d(0, 2) == 2
    assert m.d(0, 1) == 1
    assert m.is_integral


def test_triangle_complete():
    k3 = Graph(n=3, edges=((0, 1), (1, 2), (0, 2)))
    m = shortest_path_metric(k3, 0)
    off = m.dist[~np.eye(3, dtype=bool)]
    assert set(off.tolist()) == {1}
    assert m.dist.max() == 1


def test_petersen_metric(petersen):
    m = shortest_path_metric(petersen, 0)
    assert m.dist.max() == 2
    assert set(np.unique(m.dist).tolist()) == {0, 1, 2}
    assert validate_metric(m) is None


def test_disconnected_identifies_pair():
    g = Graph(n=4, edges=((0, 1), (2, 3)))
    with pytest.raises(GraphError, match=r"no path between"):
        shortest_path_metric(g, 0)


def test_validate_metric_violations():
    bad = np.array([[0, 5, 1], [5, 0, 1], [1, 1, 0]], dtype=np.int64)
    v = validate_metric(MetricSpace(n=3, dist=bad, root=0))
    assert v is not None and v.kind == "triangle"
    assert v.triple == (0, 2, 1)  # d(0,1)=5 > d(0,2)+d(2,1)=2

    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    v = validate_metric(MetricSpace(n=2, dist=asym, root=0))
    assert v is not None and v.kind == "symmetry"

    zero = np.array([[0, 0], [0, 0]], dtype=np.int64)
    v = validate_metric(MetricSpace(n=2, dist=zero, root=0))
    assert v is not None and str(v) == "nonpositive violation at (0, 1)"

    below = np.array([[0, -1], [-1, 0]], dtype=np.int64)
    v = validate_metric(MetricSpace(n=2, dist=below, root=0))
    assert v is not None and v.kind == "negative"

    one = np.zeros((1, 1), dtype=np.int64)
    assert validate_metric(MetricSpace(n=1, dist=one, root=0)) is None


def _validate_metric_loop(m: MetricSpace) -> MetricViolation | None:
    """Reference: one fresh slack table and one argwhere per middle vertex."""
    d = m.dist.astype(np.float64, copy=False)
    tol = 0.0 if m.is_integral else FLOAT_TOL
    diag = np.diagonal(d)
    bad = np.nonzero(np.abs(diag) > tol)[0]
    if bad.size:
        return MetricViolation("self", (int(bad[0]),))
    asym = np.argwhere(np.abs(d - d.T) > tol)
    if asym.size:
        u, v = map(int, asym[0])
        return MetricViolation("symmetry", (u, v))
    off = d.copy()
    np.fill_diagonal(off, np.inf)
    neg = np.argwhere(off <= tol)
    if neg.size:
        u, v = map(int, neg[0])
        return MetricViolation("negative" if d[u, v] < 0 else "nonpositive", (u, v))
    for w in range(m.n):
        slack = d - (d[:, w, None] + d[None, w, :])
        viol = np.argwhere(slack > tol)
        for u, v in viol:
            if u != w and v != w and u != v:
                return MetricViolation("triangle", (int(u), int(w), int(v)))
    return None


@st.composite
def perturbed_metrics(draw):
    """A Euclidean or integral graph metric with a few entries moved, most
    often symmetrically (triangle violations), sometimes onto the diagonal
    or one side only, sometimes to 0 or below."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        dist = random_euclidean_metric(n, rng).dist.copy()
    else:
        edges = tuple((int(rng.integers(v)), v) for v in range(1, n))
        dist = shortest_path_metric(Graph(n=n, edges=edges), 0).dist.copy()
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        x = dist.dtype.type(draw(st.integers(-1, 6)) if dist.dtype.kind == "i"
                            else draw(st.floats(-1.0, 3.0)))
        dist[u, v] = x
        if draw(st.integers(0, 4)):
            dist[v, u] = x
    return MetricSpace(n=n, dist=dist, root=0)


@settings(max_examples=300, deadline=None)
@given(perturbed_metrics())
def test_validate_metric_matches_loop_reference(m):
    assert validate_metric(m) == _validate_metric_loop(m)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(2, 9))
    extra_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # random spanning tree
    edges |= set(draw(st.lists(st.sampled_from(extra_pairs), max_size=10, unique=True)))
    return Graph(n=n, edges=tuple(sorted(edges)))


@settings(max_examples=80, deadline=None)
@given(connected_graphs())
def test_metric_closure_is_metric(g):
    m = shortest_path_metric(g, 0)
    assert validate_metric(m) is None
    assert m.dist.max() <= g.n - 1



def test_two_hubs_with_256_common_neighbours():
    # K_{2,256}: a count of common neighbours taken mod 256 reads 0 here
    k = Graph(n=258, edges=[(hub, leaf) for hub in (0, 1) for leaf in range(2, 258)])
    m = shortest_path_metric(k, 0)
    assert m.d(0, 1) == 2
    assert m.dist[2:, 2:].max() == 2 and m.dist[:2, 2:].min() == 1


@st.composite
def hub_graphs(draw):
    """1-3 hubs joined to 255-258 common leaves, plus a tail and random
    extra edges; with 256 leaves two hubs share 256 neighbours."""
    hubs = draw(st.integers(1, 3))
    leaves = draw(st.integers(255, 258))
    tail = draw(st.integers(0, 4))
    n = hubs + leaves + tail
    edges = [(h, hubs + i) for h in range(hubs) for i in range(leaves)]
    edges += [(v - 1 if v > hubs + leaves else draw(st.integers(0, hubs + leaves - 1)), v)
              for v in range(hubs + leaves, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=8))
    return Graph(n=n, edges=edges)


@settings(max_examples=25, deadline=None)
@given(hub_graphs())
def test_metric_closure_matches_per_source_bfs(g):
    m = shortest_path_metric(g, 0)
    for s in range(g.n):
        assert m.dist[s].tolist() == bfs_parents(g, s)[0].tolist()


def test_metric_roundtrip_int(tmp_path, petersen):
    m = shortest_path_metric(petersen, 3)
    path = tmp_path / "m.txt"
    write_metric(m, path)
    m2 = read_metric(path)
    assert m2.root == 3
    assert m2.is_integral
    assert np.array_equal(m2.dist, m.dist)


def test_metric_roundtrip_float(tmp_path):
    m = random_euclidean_metric(8, stream(3, 1))
    path = tmp_path / "m.txt"
    write_metric(m, path)
    m2 = read_metric(path)
    assert not m2.is_integral
    assert np.allclose(m2.dist, m.dist, atol=0)  # repr round-trips exactly
    assert np.array_equal(m2.dist, m.dist)


def test_random_metrics_valid():
    me = random_euclidean_metric(16, stream(5, 0))
    mu = random_uniform_metric(16, stream(5, 1))
    assert validate_metric(me) is None
    assert validate_metric(mu) is None


# PGL(2,q) for (5,13), (5,17), (41,13) and (13,5); PSL(2,q) for (13,17) and
# (29,5), whose q = 5 < 2 sqrt(29) makes it a multigraph
@pytest.mark.parametrize("p, q, psl, simple", [
    (5, 13, False, True), (5, 17, False, True), (41, 13, False, True),
    (13, 17, True, True), (13, 5, False, True), (29, 5, True, False)])
def test_cayley_metric_equals_the_dense_table(p, q, psl, simple):
    g, _ = lps_graph(p, q)
    assert (legendre_symbol(p, q) == 1, g.simple) == (psl, simple)
    dense = shortest_path_metric(g, 0).dist
    m = lps_metric(p, q)
    assert (m.n, m.root) == (g.n, 0)
    every = np.arange(g.n)
    for lo in range(0, g.n, 256):  # row blocks keep the reads' temporaries small
        rows = every[lo:lo + 256, None]
        got = m.gather(rows, every)
        assert got.dtype == dense.dtype
        assert np.array_equal(got, dense[lo:lo + 256]), lo
    assert m.d(g.n - 1, 1) == float(dense[g.n - 1, 1])
