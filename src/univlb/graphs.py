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

Memory. An LPS graph of n vertices and degree d lives in three (n, d)-sized
int64 arrays: ``edges``, ``csr`` and the walk rows of ``neighbors``. At
its peak each stage holds what the graph has built so far plus:

* ``from_neighbor_rows``: the edges and one (m,) gather, m = n d / 2;
* ``bfs_parents``: one level's (frontier x d) ``reach``, its bools and,
  while the slots are built in it, one ``arange`` as long;
* ``simple`` and ``bipartition``: bools, one per entry or edge end;
* ``girth``: two (m,) int64 arrays per root;
* ``neighbors``: the walk rows and one gathered part of ``csr``.

The walk operator (``walks.walk_operator``) adds one (n, d) index table.
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
        if e.dtype != np.int64 or e.flags.writeable or e.base is not None:
            e = e.astype(np.int64)  # a copy, unless the array is read-only and owns its data
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
        The caller checks that the rows are symmetric. An int64 C-ordered
        ``rows`` is taken as it is, not copied, and made read-only.

        The edges are row u's entries v > u and half of its entries v == u,
        in ascending order: the row's tail from slot ``head[u]`` on, past its
        entries < u and half its entries == u. They are written into one
        (m, 2) array, so the build holds ``rows``, the edges and one (m,)
        temporary at most."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        rows.setflags(write=False)
        n, d = rows.shape
        own = np.arange(n)[:, None]
        head = (rows < own).sum(axis=1) + (rows == own).sum(axis=1) // 2
        edges = np.empty((n * d - int(head.sum()), 2), dtype=np.int64)
        edges[:, 0] = np.repeat(np.arange(n), d - head)
        edges[:, 1] = rows[np.arange(d) >= head[:, None]]
        edges.setflags(write=False)
        g = cls(n=n, edges=edges)
        g.__dict__["csr"] = (np.arange(n + 1) * d, rows.reshape(-1))
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
        """No self-loop among the edges and no repeated neighbour in any
        sorted ``csr`` row, where repeats would sit side by side."""
        u, v = self.edges.T
        if np.any(u == v):
            return False
        indptr, indices = self.csr
        pair = np.flatnonzero(indices[1:] == indices[:-1])
        # equal neighbours side by side are a repeat unless a row starts between them
        return not np.any(np.searchsorted(indptr, pair, side="right")
                          == np.searchsorted(indptr, pair + 1, side="right"))

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices) of the walk rows, which every pinned
        walk follows: row u lists u's neighbours > u ascending, then those
        < u, with one entry of each self-loop at either end. That is row u of
        ``csr`` rotated left past its ``head[u]`` entries < u and half its
        entries == u, one per edge whose larger end is u.

        Each row's tail moves to its front and its head after it, by two
        boolean selections, so the rotation holds the walk rows and one
        gathered part (at most (nnz,) int64) besides the graph."""
        indptr, indices = self.csr
        head = np.bincount(self.edges.max(axis=1), minlength=self.n)
        rest = np.diff(indptr) - head
        tail = np.repeat(np.tile([False, True], self.n), np.stack([head, rest], axis=1).ravel())
        front = np.repeat(np.tile([True, False], self.n), np.stack([rest, head], axis=1).ravel())
        walk = np.empty_like(indices)
        walk[front] = indices[tail]
        np.logical_not(front, out=front)
        np.logical_not(tail, out=tail)
        walk[front] = indices[tail]
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
    of a one-vertex-at-a-time BFS. The frontier's rows are gathered into
    ``reach``, the one (frontier x degree) int64 array a level holds: its
    slots in ``csr`` are built in it and then replaced by the neighbours
    they hold.
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
        reach = np.repeat(start - ends + lens, lens)
        reach += np.arange(len(reach))
        np.take(indices, reach, out=reach, mode="clip")  # "raise" would buffer out
        unseen = np.flatnonzero((dist < 0)[reach])
        new = reach[unseen]
        first[new] = len(reach)
        np.minimum.at(first, new, unseen)
        np.take(first, new, out=new)  # each entry's first position, in place
        hit = unseen[new == unseen]
        via = frontier[np.searchsorted(ends, hit, side="right")]  # the row that holds hit
        frontier = reach[hit]
        dist[frontier] = level
        parent[frontier] = via
    return dist, parent


def is_connected(g: Graph) -> bool:
    return g.n == 0 or bool(np.all(g.levels >= 0))


def bipartition(g: Graph) -> np.ndarray | None:
    """Two-coloring (0/1 per vertex) if bipartite, else None. Graph must be connected.

    The only candidate is the parity of the BFS level from vertex 0; it is
    proper iff every edge joins a 0-vertex to a 1-vertex, which no self-loop
    does. The check gathers one bool per edge end.
    """
    if np.any(g.levels < 0):
        raise GraphError("graph is disconnected")
    color = g.levels % 2
    odd = color.astype(bool)
    u, v = g.edges.T
    return color if np.all(odd[u] != odd[v]) else None


def girth(g: Graph, roots: tuple[int, ...] | None = None) -> int | None:
    """Length of the shortest cycle, or None for acyclic graphs.

    For each root (every vertex, or ``roots``, which is exact for
    vertex-transitive graphs where a single root suffices) the BFS tree of
    ``bfs_parents`` gives a candidate dist[u] + dist[w] + 1 for each edge
    {u, w} it reaches that is not a tree edge. A candidate is the length of
    a closed walk around a cycle, so none is below the girth, and a root on
    a shortest cycle has that cycle's length among its candidates. A root
    holds two (m,) int64 arrays at most: the candidates and one gather.

    Self-loops count as 1-cycles and parallel edges as 2-cycles.
    """
    u, w = g.edges.T
    if not g.simple:
        return 1 if np.any(u == w) else 2

    best: int | None = None
    for root in range(g.n) if roots is None else roots:
        dist, parent = g.bfs_from_0 if root == 0 else bfs_parents(g, root)
        cycle = dist[u] >= 0
        cycle &= parent[u] != w
        cycle &= parent[w] != u
        if cycle.any():
            span = dist[u]
            span += dist[w]
            cand = int(span.min(where=cycle, initial=2 * g.n)) + 1
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
