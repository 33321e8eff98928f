"""Random walks on graphs and the walk operator of a regular graph.

A t-step walk starts at a uniform vertex and moves to a uniform neighbor at
each step. A walk is a (t + 1,) int64 row of vertices, and a block of walks
a (rows, t + 1) array, reproducible bit-exactly from (graph, generator state).
On a regular graph a walk's draws do not depend on where it goes: the
``slot_bounds`` of a walk are ``integers(n)`` for its start and ``integers(d)``
for each step's neighbour slot. So a whole chunk of trials' draws can be
computed in bulk (``rng.draw_rows``, bit for bit what each trial's own stream
gives) and ``walk_block`` only follows the slots in lockstep. Elsewhere the
bound of a step is the degree of the vertex reached, and ``walk_block`` takes
one generator per row. ``random_walk`` is a one-row call of ``walk_block``,
kept as the per-walk name that perfbench's tracer rebinds.

``walk_operator`` (A/d) is the one operator behind the spectral certificate
(``expanders.second_eigenvalue``) and ``confinement_probability``, the exact
Pr[a walk stays inside S] that the expander-walk bound (alpha + beta)^t,
alpha = |S| / n, caps (Hoory, Linial and Wigderson 2006); its products are
a canonical sparse product's, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .graphs import Graph, neighbor_slots


def random_walk(g: Graph, t: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-start t-step random walk, each step to a uniform neighbour:
    the (t + 1,) int64 row of ``walk_block`` drawn from ``rng``."""
    return walk_block(g, t, [rng])[0]


def slot_bounds(g: Graph, t: int) -> list[int] | None:
    """What a t-step walk on a regular graph draws, in order: ``integers(n)``
    for its start, then ``integers(d)`` for each step's neighbour slot. None
    on other graphs, where a step's bound depends on the vertex reached."""
    table = g.neighbor_table
    return None if table is None else [g.n] + [table.shape[1]] * t


def walk_block(g: Graph, t: int, draws) -> np.ndarray:
    """One t-step walk per row of ``draws``, as a (rows, t + 1) int64 block.

    On a regular graph ``draws`` is a (rows, t + 1) int64 array drawn to
    ``slot_bounds``: each row's start, then its t neighbour slots, which all
    walks follow in lockstep over ``g.neighbor_table``. On any graph it may
    instead be one generator per row; each walk then draws ``integers(n)``
    and one ``integers(deg)`` CSR slot per step on its own, which on a regular
    graph are the same draws and the same walk.
    """
    if t < 0:
        raise ValueError("walk length must be nonnegative")
    if isinstance(draws, np.ndarray):
        table = g.neighbor_table
        if table is None:
            raise ValueError("drawn neighbour slots need a regular graph")
        if draws.shape[1:] != (t + 1,):
            raise ValueError(f"a {t}-step walk needs {t + 1} draws per row")
        walks = np.empty_like(draws)
        walks[:, 0] = draws[:, 0]
        d, flat = table.shape[1], table.ravel()
        for s in range(t):
            walks[:, s + 1] = flat[walks[:, s] * d + draws[:, s + 1]]
        return walks
    generators = list(draws)
    walks = np.empty((len(generators), t + 1), dtype=np.int64)
    indptr, indices = g.neighbors
    for i, rng in enumerate(generators):
        v = walks[i, 0] = rng.integers(g.n)
        for s in range(1, t + 1):
            deg = indptr[v + 1] - indptr[v]
            if deg == 0:
                raise ValueError(f"walk stuck at isolated vertex {v}")
            v = walks[i, s] = indices[indptr[v] + rng.integers(deg)]
    return walks


def walk_operator(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """The transition matrix A/d of a d-regular graph, as the map x -> A x / d
    on float64 vectors. Entry u sums (mult(u, v) / d) * x[v] over u's distinct
    neighbours v, ascending, one at a time from +0.0: bit for bit the product
    of a canonical (sorted, deduplicated) CSR matrix. Symmetric, so it also
    moves a distribution one step. x is scaled once per distinct weight and
    the terms gathered from those copies, slot by slot, from a (slots, n)
    index table: on a simple graph the transposed ``csr`` table, one weight
    1/d; on a multigraph ``neighbor_slots``, whose padding reads the +0.0 in
    column n. The table and one (n,) term are all a product holds."""
    d = g.regular_degree
    if not d:
        raise ValueError("the walk operator needs a regular graph of positive degree")
    n = g.n
    if g.simple:
        weights = np.ones(1) / d
        index = g.csr[1].reshape(n, d).T.copy()
    else:
        cols, mult = neighbor_slots(g)
        present = np.bincount(mult.ravel(), minlength=d + 1) > 0
        weights = np.flatnonzero(present) / d
        index = (np.cumsum(present) - 1)[mult]  # the row of mult / d in ``scaled``
        index *= n + 1
        index += cols
    scaled = np.zeros((len(weights), n + 1))
    term = np.empty(n)

    def apply(x: np.ndarray) -> np.ndarray:
        np.multiply(weights[:, None], x, out=scaled[:, :n])
        # a row's sum starts from +0.0, so a first term of -0.0 gives +0.0;
        # a sum from +0.0 is never -0.0, so adding the padding's +0.0 keeps it
        y = np.take(scaled, index[0], mode="clip")
        y += 0.0
        for slot in index[1:]:
            np.take(scaled, slot, out=term, mode="clip")
            y += term
        return y

    return apply


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
        x = inside * walk(x)
    return float(x.sum())
