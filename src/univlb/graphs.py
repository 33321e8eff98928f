"""Undirected graph container plus the structural statistics everything else needs.

Graphs are immutable after construction. Vertices are ``0..n-1``; edges are
unordered pairs, stored once as a read-only int64 (m, 2) array. Multi-edges
and self-loops are representable (the ``simple`` flag reports their absence);
LPS graphs are simple whenever q > 2*sqrt(p).

The adjacency is one numpy CSR with sorted rows, ``Graph.csr``: built from the
edges by one lexsort, or handed over by the LPS closure (``from_neighbor_rows``).
The BFS (``bfs_parents``, behind ``bipartition`` and ``girth`` too),
``simple``, the walk rows, the walk operator and the metric closure all
read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


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

    @classmethod
    def from_neighbor_rows(cls, rows: np.ndarray) -> Graph:
        """The regular multigraph whose ``csr`` is the (n, d) array ``rows``:
        row u lists u's neighbours ascending, u itself twice per self-loop.
        The caller checks that the rows are symmetric. The edges are row u's
        entries v > u and half of its entries v == u, in ascending order."""
        rows = np.array(rows, dtype=np.int64)
        n, d = rows.shape
        own = np.arange(n)[:, None]
        loop = rows == own
        half = (rows < own).sum(axis=1, keepdims=True) + loop.sum(axis=1, keepdims=True) // 2
        u, slot = np.nonzero((rows > own) | (loop & (np.arange(d) < half)))
        g = cls(n=n, edges=np.stack([u, rows[u, slot]], axis=1))
        indices = rows.reshape(-1)
        indices.setflags(write=False)
        g.__dict__["csr"] = (np.arange(n + 1) * d, indices)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices) of the adjacency, every row sorted
        ascending: a neighbour appears as often as its edge multiplicity, and
        u twice in row u per self-loop."""
        u, v = self.edges.T
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        indices = dst[np.lexsort((dst, src))]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
        indices.setflags(write=False)
        return indptr, indices

    @cached_property
    def simple(self) -> bool:
        """No self-loop and no repeated neighbour in any sorted ``csr`` row,
        whose keys row * n + col then strictly ascend."""
        _, indices = self.csr
        row = csr_rows(self)
        return bool(np.all(indices != row) and np.all(np.diff(row * self.n + indices) > 0))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices) of the walk rows, which every pinned
        walk follows: row u lists u's neighbours > u ascending, then those
        < u, with one entry of each self-loop at either end. That is row u of
        ``csr`` rotated left past its entries < u and half its entries == u."""
        indptr, indices = self.csr
        row = csr_rows(self)
        shift = (np.bincount(row[indices < row], minlength=self.n)
                 + np.bincount(row[indices == row], minlength=self.n) // 2)
        # in place, one (nnz,) temporary at a time: the target of each entry
        at = np.arange(len(indices))
        at -= indptr[row]
        at -= shift[row]
        at %= np.diff(indptr)[row]
        at += indptr[row]
        walk = np.empty_like(indices)
        walk[at] = indices
        walk.setflags(write=False)
        return indptr, walk

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
        """(n, d) matrix of the walk rows for regular graphs; None otherwise."""
        d = self.regular_degree
        if d is None:
            return None
        _, indices = self.neighbors
        return indices.reshape(self.n, d)


def csr_rows(g: Graph) -> np.ndarray:
    """The row of each entry of ``g.csr``'s indices."""
    indptr, _ = g.csr
    return np.repeat(np.arange(g.n), np.diff(indptr))


def neighbor_slots(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(cols, mult): (w, n) tables whose column u lists u's distinct
    neighbours, ascending, and their multiplicities in ``g.csr`` (2 per
    self-loop), padded with column n and multiplicity 0. Row j holds every
    vertex's slot j, so a pass over the slots reads contiguous rows."""
    indptr, indices = g.csr
    fresh = np.ones(len(indices), dtype=bool)  # the first entry of each run
    np.not_equal(indices[1:], indices[:-1], out=fresh[1:])
    fresh[indptr[:-1][np.diff(indptr) > 0]] = True
    first = np.append(np.flatnonzero(fresh), len(indices))
    start = np.searchsorted(first, indptr)
    distinct = np.diff(start)
    width = int(distinct.max(initial=0))
    cols = np.full((width, g.n), g.n, dtype=np.int64)
    mult = np.zeros((width, g.n), dtype=np.int64)
    for j in range(width):
        has = np.flatnonzero(distinct > j)
        at = start[has] + j
        cols[j, has] = indices[first[at]]
        mult[j, has] = first[at + 1] - first[at]
    return cols, mult


def bfs_parents(g: Graph, source: int) -> tuple[np.ndarray, np.ndarray]:
    """(dist, parent) of a BFS tree; -1 marks unreachable vertices.

    Level-synchronous over ``g.csr``, whose rows are sorted: a new vertex
    takes as parent the first frontier vertex, in frontier order, whose row
    reaches it, and joins the next frontier in that order -- the queue order
    of a one-vertex-at-a-time BFS.
    """
    indptr, indices = g.csr
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    first = np.empty(g.n, dtype=np.int64)  # a new vertex's first position in reach
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
        first[reach[unseen]] = len(reach)
        np.minimum.at(first, reach[unseen], unseen)
        hit = unseen[first[reach[unseen]] == unseen]
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
    indptr, indices = g.csr
    seen = np.concatenate([[0], np.cumsum(color[indices])])
    one_nbrs = seen[indptr[1:]] - seen[indptr[:-1]]
    if np.array_equal(one_nbrs, np.where(color == 0, g.degrees, 0)):
        return color
    return None


def girth(g: Graph, roots: tuple[int, ...] | None = None) -> int | None:
    """Length of the shortest cycle, or None for acyclic graphs.

    For each root (every vertex, or ``roots``, which is exact for
    vertex-transitive graphs where a single root suffices) the BFS tree of
    ``bfs_parents`` gives a candidate dist[u] + dist[w] + 1 for each edge
    {u, w} it reaches that is not a tree edge. A candidate is the length of
    a closed walk around a cycle, so none is below the girth, and a root on
    a shortest cycle has that cycle's length among its candidates.

    Self-loops count as 1-cycles and parallel edges as 2-cycles.
    """
    if not g.simple:
        u, v = g.edges.T
        return 1 if np.any(u == v) else 2

    _, w = g.csr
    u = csr_rows(g)
    best: int | None = None
    for root in range(g.n) if roots is None else roots:
        dist, parent = g.bfs_from_0 if root == 0 else bfs_parents(g, root)
        cycle = (dist[u] >= 0) & (parent[u] != w) & (parent[w] != u)
        if cycle.any():
            cand = int((dist[u[cycle]] + dist[w[cycle]]).min()) + 1
            best = cand if best is None else min(best, cand)
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
