from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from univlb.graphs import Graph, GraphError
from univlb.metric import (
    MetricSpace,
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
    assert v is not None and v.kind == "negative"

    one = np.zeros((1, 1), dtype=np.int64)
    assert validate_metric(MetricSpace(n=1, dist=one, root=0)) is None


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
