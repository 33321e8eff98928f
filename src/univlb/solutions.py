"""The three universal solution shapes and their cost projections.

A universal algorithm commits to a solution over all of V before the terminal
set X is revealed; the cost charged is that of the induced sub-solution:

* ``SpanningTree`` -> minimal rooted subtree covering X (``project_tree``),
* ``TourOrder``    -> X visited in tour order, root to root (``project_tour``),
* ``PathCollection`` -> union of the root-paths of X (``project_paths``).

Projections of ``X`` that is empty or ``{root}`` cost 0 by convention.

A path collection keeps its steps as a key table, ``PathCollection.edge_keys``:
row v holds the steps of p_v, each undirected step {a, b} as the integer
``min(a, b) * n + max(a, b)``, padded with -1 up to the longest path's step
count (the root's row is all padding). Projecting onto X gathers the rows of
X and counts the distinct keys that are not padding, so a trial pays array
passes, not a Python loop over path tuples; the table costs 8 * n * L bytes
for paths of at most L steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .graphs import Graph, GraphError, bfs_parents
from .metric import MetricSpace


@dataclass(frozen=True)
class SpanningTree:
    """Rooted spanning tree as a parent map; the root is its own parent."""

    root: int
    parent: tuple[int, ...]
    edge_cost: tuple[float, ...]  # cost of (v, parent[v]); 0 at the root

    def __post_init__(self) -> None:
        n = len(self.parent)
        if len(self.edge_cost) != n:
            raise ValueError(f"edge_cost has {len(self.edge_cost)} entries for {n} vertices")
        if not (0 <= self.root < n and all(0 <= p < n for p in self.parent)):
            raise ValueError(f"root and parents must be vertices 0..{n - 1}")
        if self.parent[self.root] != self.root:
            raise ValueError("root must be a fixed point of the parent map")
        seen_depth = [-1] * n
        seen_depth[self.root] = 0
        for v in range(n):
            trail = []
            u = v
            while seen_depth[u] < 0:
                trail.append(u)
                u = self.parent[u]
                if len(trail) > n:
                    raise ValueError("parent map contains a cycle")
            base = seen_depth[u]
            for i, w in enumerate(reversed(trail)):
                seen_depth[w] = base + i + 1

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def total_cost(self) -> float:
        return float(sum(self.edge_cost))

    def path_to_root(self, v: int) -> tuple[int, ...]:
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return tuple(path)

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(self.n):
            if v != self.root:
                ch[self.parent[v]].append(v)
        return ch


@dataclass(frozen=True)
class PathCollection:
    """One path from every vertex to the root; the root's path is empty."""

    root: int
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for v, p in enumerate(self.paths):
            if v == self.root:
                if p not in ((), (self.root,)):
                    raise ValueError("root path must be empty")
                continue
            if not p or p[0] != v or p[-1] != self.root:
                raise ValueError(f"path of {v} must run from {v} to the root")

    @property
    def n(self) -> int:
        return len(self.paths)

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Read-only (n, L) int64 table: row v holds the undirected step keys
        ``min * n + max`` of p_v in path order, then -1 padding."""
        n = self.n
        lengths = np.fromiter(map(len, self.paths), dtype=np.int64, count=n)
        flat = np.fromiter(chain.from_iterable(self.paths), dtype=np.int64,
                           count=int(lengths.sum()))
        steps = np.maximum(lengths - 1, 0)
        rows = np.repeat(np.arange(n), steps)  # each step's path ...
        cols = np.arange(rows.size) - np.repeat(np.cumsum(steps) - steps, steps)  # ... index on it
        at = np.repeat(np.cumsum(lengths) - lengths, steps) + cols  # ... and first vertex in flat
        a, b = flat[at], flat[at + 1]
        table = np.full((n, int(steps.max(initial=0))), -1, dtype=np.int64)
        table[rows, cols] = np.minimum(a, b) * n + np.maximum(a, b)
        table.setflags(write=False)
        return table

    @cached_property
    def first_edges(self) -> frozenset[tuple[int, int]]:
        """The set F of first edges (v, v1), undirected."""
        out = set()
        for v, p in enumerate(self.paths):
            if v != self.root and len(p) >= 2:
                a, b = p[0], p[1]
                out.add((a, b) if a < b else (b, a))
        return frozenset(out)


@dataclass(frozen=True)
class TourOrder:
    """Visiting order of the non-root vertices; the tour is r -> sigma -> r."""

    root: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order) + 1
        expected = set(range(n)) - {self.root}
        if set(self.order) != expected:
            raise ValueError("order must list each non-root vertex exactly once")

    @property
    def n(self) -> int:
        return len(self.order) + 1

    @cached_property
    def positions(self) -> dict[int, int]:
        """Vertex -> index in ``order``; built once per tour."""
        return {v: i for i, v in enumerate(self.order)}


def bfs_tree(g: Graph, root: int) -> SpanningTree:
    """Unit-cost shortest-path tree straight from the graph (no metric table)."""
    _, parent = g.bfs_from_0 if root == 0 else bfs_parents(g, root)
    if np.any(parent < 0):
        raise GraphError("graph is disconnected")
    costs = tuple(0.0 if v == root else 1.0 for v in range(g.n))
    return SpanningTree(root=root, parent=tuple(int(p) for p in parent), edge_cost=costs)


def _root_paths(t: SpanningTree, X) -> tuple[float, set[int]]:
    """Walk each terminal of X up to the first vertex already reached; return
    the cost of the edges walked and every vertex reached, root included."""
    cost = 0.0
    marked = {t.root}
    for x in X:
        v = x
        while v not in marked:
            marked.add(v)
            cost += t.edge_cost[v]
            v = t.parent[v]
    return cost, marked


def project_tree(t: SpanningTree, X) -> float:
    """Cost of the minimal rooted subtree containing X."""
    return _root_paths(t, X)[0]


def project_tour(sigma: TourOrder, m: MetricSpace, X) -> float:
    """Cost of visiting X in sigma's order, starting and ending at the root.

    c(sigma_X) = c(r, x_1) + sum c(x_i, x_{i+1}) + c(x_k, r).
    """
    pos = sigma.positions
    xs = sorted((v for v in X if v != sigma.root), key=pos.__getitem__)
    if not xs:
        return 0.0
    cost = m.d(sigma.root, xs[0]) + m.d(xs[-1], sigma.root)
    for a, b in zip(xs, xs[1:]):
        cost += m.d(a, b)
    return cost


def project_paths(p: PathCollection, X, m: MetricSpace | None = None) -> float:
    """Cost of the union of the root-paths of X; shared edges count once.

    Edge costs come from the metric when given, else unit cost per edge.
    """
    xs = np.fromiter(X, dtype=np.int64)
    keys = np.sort(p.edge_keys[xs], axis=None)
    keys = keys[np.searchsorted(keys, 0):]  # drop the -1 padding
    if not keys.size:
        return 0.0
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if m is None:
        return float(np.count_nonzero(first))
    u, v = np.divmod(keys[first], p.n)
    return float(m.dist[u, v].sum())


def tree_to_path_collection(t: SpanningTree) -> PathCollection:
    """The equivalent path collection: p_v = unique tree path v -> root."""
    paths = tuple(
        () if v == t.root else t.path_to_root(v) for v in range(t.n)
    )
    return PathCollection(root=t.root, paths=paths)


def tree_to_tour(t: SpanningTree) -> TourOrder:
    """Depth-first traversal order (children ascending), skipping the root.

    Deterministic: with the fixed child order, equal trees give equal tours.
    """
    ch = t.children()
    order: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v != t.root:
            order.append(v)
        stack.extend(reversed(ch[v]))
    return TourOrder(root=t.root, order=tuple(order))


def restricted_dfs_order(t: SpanningTree, X) -> tuple[int, ...]:
    """DFS first-visit order of X inside the projected subtree T[X].

    Used to check contiguity: this must equal the restriction of
    ``tree_to_tour(t)`` to X.
    """
    _, keep = _root_paths(t, X)
    ch = t.children()
    order: list[int] = []
    xset = {v for v in X if v != t.root}
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in xset:
            order.append(v)
        stack.extend(reversed([c for c in ch[v] if c in keep]))
    return tuple(order)
