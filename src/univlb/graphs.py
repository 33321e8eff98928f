"""Undirected graph container plus the structural statistics everything else needs.

Graphs are immutable after construction. Vertices are ``0..n-1``; edges are
unordered pairs. Multi-edges and self-loops are representable (the ``simple``
flag reports their absence) but every construction in this package produces
simple graphs unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    @cached_property
    def simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Adjacency matrix with entry = edge multiplicity."""
        if self.m == 0:
            return sp.csr_matrix((self.n, self.n), dtype=np.int64)
        e = np.asarray(self.edges, dtype=np.int64)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        data = np.ones(2 * self.m, dtype=np.int64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style (indptr, indices); repeated neighbors encode multi-edges."""
        if self.m == 0:
            return np.zeros(self.n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        e = np.asarray(self.edges, dtype=np.int64)
        src = np.concatenate([e[:, 0], e[:, 1]])
        dst = np.concatenate([e[:, 1], e[:, 0]])
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

    Rows of the canonical CSR ``g.adjacency`` are sorted, so each vertex
    scans its neighbors in index order and ties go to the smaller vertex.
    """
    adj = g.adjacency
    indptr, indices = adj.indptr, adj.indices
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
            for w in indices[indptr[u]:indptr[u + 1]]:
                if dist[w] < 0:
                    dist[w] = level
                    parent[w] = u
                    nxt.append(int(w))
        frontier = nxt
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
        for u, v in g.edges:
            if u == v:
                return 1
        return 2

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
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> Graph:
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise GraphError(f"{path}: missing header")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise GraphError(f"{path}: expected {m} edges, found {(len(tokens) - 2) // 2}")
    it = iter(tokens[2:])
    edges = tuple((int(u), int(v)) for u, v in zip(it, it))
    return Graph(n=n, edges=edges)
