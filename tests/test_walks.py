from __future__ import annotations

import numpy as np
import pytest

from univlb.graphs import Graph
from univlb.rng import stream
from univlb.walks import random_walk, walk_confinement_stats


def _edge_set(g: Graph) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in g.edges}


def test_zero_step_walk(k4):
    w = random_walk(k4, 0, stream(1, 0))
    assert len(w.vertices) == 1
    assert w.edges == ()


def test_walk_on_k2_alternates():
    k2 = Graph(n=2, edges=((0, 1),))
    w = random_walk(k2, 3, stream(2, 0))
    assert w.vertices in ((0, 1, 0, 1), (1, 0, 1, 0))
    assert w.steps == 3
    assert w.edges == tuple(zip(w.vertices, w.vertices[1:]))


def test_walk_edges_are_graph_edges(petersen):
    edges = _edge_set(petersen)
    for i in range(50):
        w = random_walk(petersen, 9, stream(3, i))
        for a, b in w.edges:
            assert (min(a, b), max(a, b)) in edges
        assert len(w.edges) == len(w.vertices) - 1


def test_walk_reproducible(lps_5_13):
    g, _ = lps_5_13
    w1 = random_walk(g, 12, stream(77, 4))
    w2 = random_walk(g, 12, stream(77, 4))
    assert w1.vertices == w2.vertices


def test_confinement_full_set(k4):
    rngs = [stream(5, 1, i) for i in range(200)]
    rep = walk_confinement_stats(k4, np.arange(4), t=3, beta=1.0 / 3.0,
                                 trials=200, rngs=rngs)
    assert rep.frequency == 1.0
    assert rep.bound >= 1.0


def test_confinement_single_vertex_impossible(k4):
    rngs = [stream(6, 1, i) for i in range(300)]
    rep = walk_confinement_stats(k4, np.array([2]), t=2, beta=1.0 / 3.0,
                                 trials=300, rngs=rngs)
    assert rep.frequency == 0.0  # no self-loops: a 2-step walk cannot sit still


def test_confinement_bound_holds_on_expander(lps_5_13):
    g, cert = lps_5_13
    rng = stream(9, 0)
    subset = rng.choice(g.n, size=g.n // 3, replace=False)
    rngs = [stream(9, 1, i) for i in range(2000)]
    rep = walk_confinement_stats(g, subset, t=4, beta=cert.beta, trials=2000, rngs=rngs)
    assert rep.within(3.0)


def test_stats_match_per_walk_reference(petersen):
    # the validator against its own loop over the same per-trial streams
    subset, t, trials = np.array([0, 2, 5, 7, 9]), 4, 400
    mask = np.isin(np.arange(petersen.n), subset)
    walks = [random_walk(petersen, t, stream(13, 1, i)) for i in range(trials)]
    inside = sum(all(mask[v] for v in w.vertices) for w in walks)
    conf = walk_confinement_stats(petersen, subset, t, 0.5, trials,
                                  [stream(13, 1, i) for i in range(trials)])
    assert conf.frequency == inside / trials
    assert 0 < inside < trials


def test_confinement_needs_one_stream_per_trial(k4):
    with pytest.raises(ValueError, match="one rng stream per trial"):
        walk_confinement_stats(k4, np.array([0]), t=2, beta=1.0 / 3.0, trials=3,
                               rngs=[stream(0, 1, i) for i in range(2)])
