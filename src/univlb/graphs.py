"""Undirected graph container plus the structural statistics everything else needs.

Graphs are immutable after construction. Vertices are ``0..n-1``; edges are
unordered pairs, stored once as a read-only int64 (m, 2) array. Multi-edges
and self-loops are representable (the ``simple`` flag reports their absence);
LPS graphs are simple whenever q > 2*sqrt(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse


class GraphError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Graph:
    """``edges`` accepts any sequence of (u, v) pairs and is stored as a
    read-only int64 (m, 2) array. Graphs compare by identity."""

    n: int
    edges: np.ndarray

    def __post_init__(self) -> None:
        try:
            e = np.asarray(self.edges)
        except ValueError as exc:
            raise GraphError(f"edges must be (u, v) pairs: {exc}") from None
        if e.shape == (0,):
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {e.shape}")
        if e.size and e.dtype.kind not in "iu":
            raise GraphError(f"edge endpoints must be integers, got {e.dtype}")
        e = e.astype(np.int64)  # a copy: the caller's array stays writable
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)
        bad = np.flatnonzero(((e < 0) | (e >= self.n)).any(axis=1))
        if bad.size:
            u, v = e[bad[0]]
            raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @cached_property
    def simple(self) -> bool:
        # an adjacency entry is an edge's multiplicity, and 2 for a self-loop
        return bool(np.all(self.adjacency.data == 1))

    @cached_property
    def adjacency(self) -> scipy.sparse.csr_matrix:
        """Adjacency matrix with entry = edge multiplicity. Importing scipy
        is left to the first graph that needs it, so pipelines without a
        graph never load it."""
        import scipy.sparse as sp

        if self.m == 0:
            return sp.csr_matrix((self.n, self.n), dtype=np.int64)
        u, v = self.edges.T
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        data = np.ones(2 * self.m, dtype=np.int64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices); repeated neighbors encode multi-edges."""
        if self.m == 0:
            return np.zeros(self.n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        u, v = self.edges.T
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.argsort(src, kind="stable")
        indices = dst[order]
        counts = np.bincount(src, minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices

    @cached_property
    def bfs_from_0(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (dist, parent) of the BFS from vertex 0; the one sweep
        behind ``levels`` and ``solutions.bfs_tree(g, 0)``."""
        dist, parent = bfs_parents(self, 0)
        dist.setflags(write=False)
        parent.setflags(write=False)
        return dist, parent

    @property
    def levels(self) -> np.ndarray:
        """BFS distances from vertex 0 (-1 for unreachable), read by
        ``is_connected``, ``bipartition`` and ``diameter_ecc``."""
        return self.bfs_from_0[0]

    @cached_property
    def regular_degree(self) -> int | None:
        deg = self.degrees
        if self.n > 0 and np.all(deg == deg[0]):
            return int(deg[0])
        return None

    @cached_property
    def neighbor_table(self) -> np.ndarray | None:
        """(n, d) neighbor matrix for regular graphs; None otherwise."""
        d = self.regular_degree
        if d is None:
            return None
        _, indices = self.neighbors
        return indices.reshape(self.n, d)


def bfs_parents(g: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """(dist, parent) of a BFS tree; -1 marks unreachable vertices.

    Level-synchronous over the canonical CSR ``g.adjacency``, whose rows are
    sorted: a new vertex takes as parent the first frontier vertex, in
    frontier order, whose row reaches it, and joins the next frontier in
    that order -- the queue order of a one-vertex-at-a-time BFS.
    """
    adj = g.adjacency
    indptr, indices = adj.indptr, adj.indices
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.array([source])
    level = 0
    while frontier.size:
        level += 1
        start = indptr[frontier]
        lens = indptr[frontier + 1] - start
        ends = np.cumsum(lens)
        slots = np.arange(ends[-1]) + np.repeat(start - ends + lens, lens)
        reach, via = indices[slots], np.repeat(frontier, lens)
        unseen = np.flatnonzero(dist[reach] < 0)
        _, first = np.unique(reach[unseen], return_index=True)
        hit = unseen[np.sort(first)]
        frontier = reach[hit]
        dist[frontier] = level
        parent[frontier] = via[hit]
    return dist, parent


def is_connected(g: Graph) -> bool:
    return g.n == 0 or bool(np.all(g.levels >= 0))


def bipartition(g: Graph) -> np.ndarray | None:
    """Two-coloring (0/1 per vertex) if bipartite, else None. Graph must be connected.

    The only candidate is the parity of the BFS level from vertex 0; it is
    proper iff every 0-vertex sees only 1-neighbors and every 1-vertex only
    0-neighbors, counting multi-edges and self-loops by multiplicity.
    """
    if np.any(g.levels < 0):
        raise GraphError("graph is disconnected")
    color = g.levels % 2
    one_nbrs = g.adjacency @ color
    if np.array_equal(one_nbrs, np.where(color == 0, g.degrees, 0)):
        return color
    return None


def girth(g: Graph, roots: tuple[int, ...] | None = None) -> int | None:
    """Length of the shortest cycle, or None for acyclic graphs.

    Runs a truncated BFS from every vertex (the classic n * BFS shortest-cycle
    search). ``roots`` restricts the scan, which is exact for vertex-transitive
    graphs where a single root suffices.

    Self-loops count as 1-cycles and parallel edges as 2-cycles.
    """
    if not g.simple:
        u, v = g.edges.T
        return 1 if np.any(u == v) else 2

    indptr, indices = g.neighbors
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


def diameter_ecc(g: Graph) -> int:
    """Eccentricity of vertex 0; equals the diameter on vertex-transitive graphs."""
    if np.any(g.levels < 0):
        raise GraphError("graph is disconnected")
    return int(g.levels.max())


def write_graph(g: Graph, path: str | Path) -> None:
    """Text format: first line ``n m``, then one ``u v`` line per edge."""
    lines = "".join(f"{u} {v}\n" for u, v in g.edges.tolist())
    Path(path).write_text(f"{g.n} {g.m}\n{lines}")


def read_graph(path: str | Path) -> Graph:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise GraphError(f"{path}: missing header")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {(len(tokens) - 2) // 2}")
    return Graph(n=n, edges=np.array(tokens[2:], dtype=np.int64).reshape(-1, 2))
