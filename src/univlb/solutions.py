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

The ``*_rows`` projections do the same for a block of terminal sets at once,
one per row, each against its own solution: ``project_path_rows`` reads the
stacked key tables of ``stack_edge_keys``, and ``project_tour_rows`` the
position and order tables of ``tour_tables``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    def first_steps(self) -> np.ndarray:
        """Read-only (n,) int64 array: the vertex after v on p_v, -1 on the
        root's path. The step (a, b) is a first edge exactly when
        ``first_steps[a] == b`` or ``first_steps[b] == a``."""
        out = np.fromiter((p[1] if len(p) >= 2 else -1 for p in self.paths),
                          dtype=np.int64, count=self.n)
        out.setflags(write=False)
        return out

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
    #: Read-only (n,) int64: v's index in ``order``, -1 at the root. Built
    #: by the check that ``order`` lists each non-root vertex once.
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.order) + 1
        order = np.array(self.order)
        positions = np.full(n, -1, dtype=np.int64)
        valid = 0 <= self.root < n and (order.size == 0 or (
            order.dtype.kind in "iu" and 0 <= order.min() and order.max() < n))
        if valid:
            positions[order.astype(np.int64)] = np.arange(n - 1)
            # the root unlisted and n - 1 distinct slots filled: no repeats
            valid = positions[self.root] < 0 and np.count_nonzero(positions >= 0) == n - 1
        if not valid:
            raise ValueError("order must list each non-root vertex exactly once")
        positions.setflags(write=False)
        object.__setattr__(self, "positions", positions)

    @property
    def n(self) -> int:
        return len(self.order) + 1


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


def tour_tables(tours) -> tuple[np.ndarray, np.ndarray]:
    """The tours as two (S, n) int64 tables: ``positions[s]`` is
    ``tours[s].positions``, and ``orders[s]`` is that tour's order followed
    by the root."""
    positions = np.stack([sigma.positions for sigma in tours])
    n = positions.shape[1]
    orders = np.empty_like(positions)
    np.put_along_axis(orders, np.where(positions < 0, n - 1, positions),
                      np.arange(n)[None, :], axis=1)
    return positions, orders


def project_tour_rows(positions: np.ndarray, orders: np.ndarray, pick: np.ndarray,
                      xs: np.ndarray, m: MetricSpace) -> np.ndarray:
    """Row b: ``project_tour`` of tour ``pick[b]`` on the vertices of
    ``xs[b]``, for ``tour_tables(tours)``, adding the legs in its order.

    Sorting a row's distinct positions, padded with the root's slot n - 1,
    gives the walk r, x_1, ..., x_k, r, r, ...: leg 0 is c(r, x_1), leg k
    is c(x_k, r), legs 1..k-1 join consecutive terminals and later legs
    are the root standing still.
    """
    n = positions.shape[1]
    pos = np.sort(positions[pick[:, None], xs], axis=1)
    keep = distinct_mask(pos)
    k = keep.sum(axis=1)
    pos = np.sort(np.where(keep, pos, n - 1), axis=1)
    pick = pick[:, None]
    root = orders[pick, n - 1]
    stops = np.concatenate([root, orders[pick, pos], root], axis=1)
    legs = m.dist[stops[:, :-1], stops[:, 1:]].astype(np.float64)
    cost = legs[:, 0] + legs[np.arange(len(k)), k]
    for j in range(1, legs.shape[1] - 1):
        cost += np.where(j < k, legs[:, j], 0.0)
    return cost


def project_paths(p: PathCollection, X, m: MetricSpace | None = None) -> float:
    """Cost of the union of the root-paths of X; shared edges count once.

    Edge costs come from the metric when given, else unit cost per edge.
    """
    xs = np.fromiter(X, dtype=np.int64)
    return float(project_path_rows(p.edge_keys[None], np.zeros(1, dtype=np.int64),
                                   xs[None], m)[0])


def stack_edge_keys(collections) -> np.ndarray:
    """The (S, n, L) stack of the collections' ``edge_keys``, each padded
    with -1 to the widest."""
    tables = [p.edge_keys for p in collections]
    out = np.full((len(tables), tables[0].shape[0], max(t.shape[1] for t in tables)), -1,
                  dtype=np.int64)
    for s, table in enumerate(tables):
        out[s, :, :table.shape[1]] = table
    return out


def project_path_rows(keys: np.ndarray, pick: np.ndarray, xs: np.ndarray,
                      m: MetricSpace | None = None) -> np.ndarray:
    """Row b: ``project_paths`` of collection ``pick[b]`` on the vertices of
    ``xs[b]``, for ``keys = stack_edge_keys(collections)``.

    A row's keys are gathered, sorted and counted once each when not padding;
    repeated vertices and the root (whose row is all padding) add nothing.
    """
    rows = keys[pick[:, None], xs].reshape(len(xs), xs.shape[1] * keys.shape[2])
    rows.sort(axis=1)
    first = distinct_mask(rows)
    if m is None:
        return first.sum(axis=1).astype(np.float64)
    u, v = np.divmod(np.where(first, rows, 0), keys.shape[1])
    return np.where(first, m.dist[u, v], 0).sum(axis=1).astype(np.float64)


def distinct_mask(rows: np.ndarray) -> np.ndarray:
    """For row-sorted ``rows``: True at the first copy of each entry >= 0."""
    first = rows >= 0
    first[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    return first


def distinct_counts(rows: np.ndarray) -> np.ndarray:
    """The number of distinct entries >= 0 in each row."""
    return distinct_mask(np.sort(rows, axis=1)).sum(axis=1)


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
