from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from univlb.expanders import lps_graph
from univlb.graphs import Graph
from univlb.rng import stream
from univlb.walks import confinement_probability, random_walk


def _edge_set(g: Graph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in g.edges.tolist()}


def test_zero_step_walk(k4):
    w = random_walk(k4, 0, stream(1, 0))
    assert w.shape == (1,) and w.dtype == np.int64
    assert 0 <= w[0] < 4


def test_walk_on_k2_alternates():
    k2 = Graph(n=2, edges=((0, 1),))
    w = random_walk(k2, 3, stream(2, 0))
    assert w.tolist() in ([0, 1, 0, 1], [1, 0, 1, 0])


def test_walk_edges_are_graph_edges(petersen):
    edges = _edge_set(petersen)
    for i in range(50):
        w = random_walk(petersen, 9, stream(3, i)).tolist()
        assert len(w) == 10
        for a, b in zip(w, w[1:]):
            assert (min(a, b), max(a, b)) in edges


def test_walk_reproducible(lps_5_13):
    g, _ = lps_5_13
    w1 = random_walk(g, 12, stream(77, 4))
    w2 = random_walk(g, 12, stream(77, 4))
    assert w1.tolist() == w2.tolist()


def test_confinement_full_set(k4):
    assert confinement_probability(k4, np.ones(4, dtype=bool), 3) == pytest.approx(1.0)


def test_confinement_single_vertex_impossible(k4):
    mask = np.arange(4) == 2
    assert confinement_probability(k4, mask, 0) == 0.25
    assert confinement_probability(k4, mask, 2) == 0.0  # no self-loops: a walk cannot sit still


def test_confinement_bound_holds_on_expander(lps_5_13):
    g, cert = lps_5_13
    mask = np.zeros(g.n, dtype=bool)
    mask[stream(9, 0).choice(g.n, size=g.n // 3, replace=False)] = True
    assert confinement_probability(g, mask, 4) <= (mask.mean() + cert.beta) ** 4


def _enumerated_confinement(g: Graph, mask: np.ndarray, t: int) -> float:
    """Reference: every one of the n * d^t walks kept apart, start by start,
    and the share that never leaves the mask."""
    table, d = g.neighbor_table, g.regular_degree
    hits = 0
    for start in range(g.n):
        ends, inside = np.array([start]), mask[[start]]
        for _ in range(t):
            ends = table[ends].ravel()
            inside = np.repeat(inside, d) & mask[ends]
        hits += int(inside.sum())
    return hits / (g.n * d ** t)


def _c6() -> Graph:
    return Graph(n=6, edges=tuple((i, (i + 1) % 6) for i in range(6)))


# the graph fixtures are immutable, so sharing them across examples is safe
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["k4", "c6", "petersen", (13, 5), (29, 5)]), st.data())
def test_confinement_matches_walk_enumeration(k4, petersen, name, data):
    if isinstance(name, tuple):
        g = lps_graph(*name)[0]
    else:
        g = {"k4": k4, "c6": _c6(), "petersen": petersen}[name]
    # lps(13,5) has 120 * 14^t walks, and the multigraph lps(29,5) 60 * 30^t
    t = data.draw(st.integers(0, {(13, 5): 4, (29, 5): 3}.get(name, 5)), label="t")
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n), label="mask"))
    assert confinement_probability(g, mask, t) == pytest.approx(
        _enumerated_confinement(g, mask, t), rel=0, abs=1e-12)


@pytest.mark.parametrize("p, q, t", [(13, 5, 5), (29, 5, 4)])
def test_confinement_matches_walk_enumeration_at_the_longest_walks(p, q, t):
    g, cert = lps_graph(p, q)
    assert g.simple == (p == 13)  # lps(29,5) carries multi-edges
    mask = np.zeros(g.n, dtype=bool)
    mask[stream(11, 0).choice(g.n, size=g.n // 2, replace=False)] = True
    exact = confinement_probability(g, mask, t)
    assert exact == pytest.approx(_enumerated_confinement(g, mask, t), rel=0, abs=1e-12)
    assert 0 < exact <= (0.5 + cert.beta) ** t
