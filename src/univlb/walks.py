"""Random walks on graphs and the walk operator of a regular graph.

A t-step walk starts at a uniform vertex and moves to a uniform neighbor at
each step. Traces are reproducible bit-exactly from (graph, generator state).

``walk_operator`` (A/d) is the one operator behind the spectral certificate
(``expanders.second_eigenvalue``) and ``confinement_probability``, the exact
Pr[a walk stays inside S] that the expander-walk bound (alpha + beta)^t,
alpha = |S| / n, caps (Hoory, Linial and Wigderson 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class WalkTrace:
    vertices: tuple[int, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The steps (v_i, v_{i+1}) in walk order."""
        return tuple(zip(self.vertices, self.vertices[1:]))

    @property
    def steps(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        """The distinct vertices, built once per walk."""
        return frozenset(self.vertices)


def random_walk(g: Graph, t: int, rng: np.random.Generator) -> WalkTrace:
    """Uniform-start t-step random walk; each step is a uniform neighbor."""
    if t < 0:
        raise ValueError("walk length must be nonnegative")
    start = int(rng.integers(g.n))
    verts = [start]
    table = g.neighbor_table
    if table is not None and t > 0:
        d = table.shape[1]
        flat = memoryview(table).cast("B").cast("q")  # flat[v * d + c] = table[v, c]
        v = start
        for c in rng.integers(0, d, size=t).tolist():
            v = flat[v * d + c]
            verts.append(v)
    else:
        indptr, indices = g.neighbors
        v = start
        for _ in range(t):
            deg = indptr[v + 1] - indptr[v]
            if deg == 0:
                raise ValueError(f"walk stuck at isolated vertex {v}")
            v = int(indices[indptr[v] + rng.integers(deg)])
            verts.append(v)
    return WalkTrace(vertices=tuple(verts))


def walk_operator(g: Graph):
    """The transition matrix A/d of a d-regular graph, as a float64 CSR copy of
    ``g.adjacency`` (its products sum each row in index order, whatever the
    BLAS thread count). Symmetric, so it also moves a distribution one step."""
    d = g.regular_degree
    if not d:
        raise ValueError("the walk operator needs a regular graph of positive degree")
    walk = g.adjacency.astype(np.float64)
    walk.data /= d
    return walk


def confinement_probability(g: Graph, mask: np.ndarray, t: int) -> float:
    """Exact Pr[all t+1 positions of a uniform-start t-step walk lie in S],
    S the vertices where the boolean ``mask`` is set: the sum of x_t, where
    x_0 = 1_S / n and x_{s+1} = 1_S * (A x_s) / d."""
    if t < 0:
        raise ValueError("walk length must be nonnegative")
    walk = walk_operator(g)
    inside = np.asarray(mask, dtype=np.float64)
    x = inside / g.n
    for _ in range(t):
        x = inside * (walk @ x)
    return float(x.sum())
