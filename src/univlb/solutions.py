"""The three universal solution shapes and their cost projections.

A universal algorithm commits to a solution over all of V before the terminal
set X is revealed; the cost charged is that of the induced sub-solution:

* ``SpanningTree`` -> minimal rooted subtree covering X (``project_tree``),
* ``TourOrder``    -> X visited in tour order, root to root (``project_tour``),
* ``PathCollection`` -> union of the root-paths of X (``project_paths``).

Projections of ``X`` that is empty or ``{root}`` cost 0 by convention.

Every field is a read-only array: a tree's ``parent`` (int64) and
``edge_cost`` (float64), a tour's ``order`` and ``positions`` (int64). A
tree's one root-path table, ``SpanningTree.paths``, is laid out as a path
collection's and serves every tree kernel: ``project_tree`` marks where each
vertex first appears in the rows of X, ``tree_to_tour`` sorts the rows
read root-down, ``restricted_dfs_order`` sorts the rows of X as lists, and
``tree_to_path_collection`` hands the table on.

A path collection is one vertex table, ``PathCollection.paths``, and its
steps are the key table ``PathCollection.edge_keys``, read off adjacent
columns: each undirected step {a, b} as ``min(a, b) * n + max(a, b)``, -1
past a path's end. Projecting onto X gathers the key rows of X and counts
the distinct keys that are not padding, so a trial pays array passes, not a
Python loop over paths; the two take 8 * n * (2L + 1) bytes for L steps.

The ``*_rows`` projections do the same for a block of terminal sets at once,
one per row, each against its own solution: ``project_path_rows`` reads the
stacked key tables of ``stack_edge_keys``, and ``project_tour_rows`` the
position and order tables of ``tour_tables``. ``project_paths`` and
``project_tour`` are one-row calls of them, kept as the per-set names that
perfbench's tracer rebinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import Graph, GraphError, bfs_parents
from .metric import MetricSpace


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Rooted spanning tree: read-only int64 ``parent``, the root its own
    parent, and float64 ``edge_cost``, of (v, parent[v]) and 0 at the root."""

    root: int
    parent: np.ndarray
    edge_cost: np.ndarray

    def __post_init__(self) -> None:
        up, cost = np.array(self.parent), np.array(self.edge_cost, dtype=np.float64)
        n = len(up)
        if cost.shape != (n,):
            raise ValueError(f"edge_cost has {len(cost)} entries for {n} vertices")
        if not (0 <= self.root < n and up.ndim == 1 and up.dtype.kind in "iu"
                and 0 <= up.min() and up.max() < n):
            raise ValueError(f"root and parents must be vertices 0..{n - 1}")
        if up[self.root] != self.root:
            raise ValueError("root must be a fixed point of the parent map")
        parent = up.astype(np.int64)
        # pointer doubling: after k rounds up[v] is v's 2**k-th ancestor, and
        # 2**k > n exceeds every depth, so only a cycle keeps off the root
        for _ in range(n.bit_length()):
            up = up[up]
        if np.any(up != self.root):
            raise ValueError("parent map contains a cycle")
        for name, array in (("parent", parent), ("edge_cost", cost)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def total_cost(self) -> float:
        return float(np.cumsum(self.edge_cost)[-1])  # left to right, not pairwise

    @cached_property
    def paths(self) -> np.ndarray:
        """Read-only root-path table, laid out as ``PathCollection.paths``;
        column j + 1 holds the parents of column j."""
        step = np.append(self.parent, -1)  # index -1 keeps padding as padding
        step[self.root] = -1
        each = np.arange(self.n)
        cols = [np.where(each == self.root, -1, each)]
        while (col := step[cols[-1]]).max() >= 0:
            cols.append(col)
        table = np.stack(cols, axis=1)
        table.setflags(write=False)
        return table


@dataclass(frozen=True, eq=False)
class PathCollection:
    """One path from every vertex to the root, as the read-only (n, L+1) int64
    vertex table ``paths``: row v holds v, each later vertex of p_v up to the
    root, then -1 padding. The root's path is empty: its row is all padding."""

    root: int
    paths: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.paths)
        n = len(table)
        if not (table.ndim == 2 and table.shape[1] >= 1 and table.dtype.kind in "iu"
                and 0 <= self.root < n):
            raise ValueError("paths must be an (n, L+1) integer table, the root one of its rows")
        table = table.astype(np.int64)
        if np.any((table < -1) | (table >= n)):
            raise ValueError(f"path entries must be vertices 0..{n - 1} or -1 padding")
        real = table >= 0
        if np.any(real[:, 1:] & ~real[:, :-1]):
            raise ValueError("a path continues after its padding")
        starts = np.arange(n)
        starts[self.root] = -1
        if not np.array_equal(table[:, 0], starts):
            raise ValueError("row v must start at v, and the root's row must be all padding")
        ends = table[np.arange(n), real.sum(axis=1) - 1]  # the root's row: its last -1
        if np.any((ends != self.root) & (starts >= 0)):
            raise ValueError("every path must end at the root")
        table.setflags(write=False)
        object.__setattr__(self, "paths", table)

    @property
    def n(self) -> int:
        return len(self.paths)

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """Read-only (n, L) int64 table: row v holds the undirected step keys
        ``min * n + max`` of p_v in path order, then -1 padding."""
        a, b = self.paths[:, :-1], self.paths[:, 1:]
        table = np.where(b >= 0, np.minimum(a, b) * self.n + np.maximum(a, b), -1)
        table.setflags(write=False)
        return table

    @cached_property
    def first_steps(self) -> np.ndarray:
        """Read-only (n,) int64 array: the vertex after v on p_v, -1 on the
        root's path. The step (a, b) is a first edge exactly when
        ``first_steps[a] == b`` or ``first_steps[b] == a``."""
        # a one-column table has only the root's row
        return self.paths[:, min(1, self.paths.shape[1] - 1)]


@dataclass(frozen=True, eq=False)
class TourOrder:
    """Visiting order of the non-root vertices as a read-only int64 array;
    the tour is r -> sigma -> r."""

    root: int
    order: np.ndarray
    #: Read-only (n,) int64: v's index in ``order``, -1 at the root. Built
    #: by the check that ``order`` lists each non-root vertex once.
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        order = np.array(self.order)
        n = len(order) + 1
        positions = np.full(n, -1, dtype=np.int64)
        valid = 0 <= self.root < n and order.ndim == 1 and (order.size == 0 or (
            order.dtype.kind in "iu" and 0 <= order.min() and order.max() < n))
        if valid:
            order = order.astype(np.int64)
            positions[order] = np.arange(n - 1)
            # the root unlisted and n - 1 distinct slots filled: no repeats
            valid = positions[self.root] < 0 and np.count_nonzero(positions >= 0) == n - 1
        if not valid:
            raise ValueError("order must list each non-root vertex exactly once")
        for name, array in (("order", order), ("positions", positions)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return len(self.order) + 1


def bfs_tree(g: Graph, root: int) -> SpanningTree:
    """Unit-cost shortest-path tree straight from the graph (no metric table)."""
    _, parent = g.bfs_from_0 if root == 0 else bfs_parents(g, root)
    if np.any(parent < 0):
        raise GraphError("graph is disconnected")
    costs = np.ones(g.n)
    costs[root] = 0.0
    return SpanningTree(root=root, parent=parent, edge_cost=costs)


def project_tree(t: SpanningTree, X) -> float:
    """Cost of the minimal rooted subtree containing X: the edge costs of
    its vertices, added where each first appears in the root paths of X row
    after row, the order of a walk up from each terminal to the first vertex
    already reached."""
    steps = t.paths[np.fromiter(X, dtype=np.int64)].ravel()
    at = np.arange(steps.size)
    first = np.full(t.n + 1, steps.size)  # slot n (index -1) holds the padding
    np.minimum.at(first, steps, at)
    first[[t.root, -1]] = -1  # the root and the padding add no edge
    walked = steps[first[steps] == at]
    return float(np.cumsum(t.edge_cost[walked])[-1]) if walked.size else 0.0


def project_tour(sigma: TourOrder, m: MetricSpace, X) -> float:
    """Cost of visiting X in sigma's order, starting and ending at the root.

    c(sigma_X) = c(r, x_1) + sum c(x_i, x_{i+1}) + c(x_k, r).
    """
    xs = np.fromiter(X, dtype=np.int64)
    return float(project_tour_rows(*tour_tables([sigma]), np.zeros(1, dtype=np.int64),
                                   xs[None], m)[0])


def tour_tables(tours) -> tuple[np.ndarray, np.ndarray]:
    """The tours as two (S, n) int64 tables: ``positions[s]`` is
    ``tours[s].positions``, and ``orders[s]`` is that tour's order followed
    by the root."""
    positions = np.stack([sigma.positions for sigma in tours])
    orders = np.column_stack([np.stack([sigma.order for sigma in tours]),
                              [sigma.root for sigma in tours]])
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
    with -1 to the widest: for one collection, a read-only view of its own
    table, not a copy."""
    tables = [p.edge_keys for p in collections]
    if len(tables) == 1:
        return tables[0][None]
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
    return PathCollection(root=t.root, paths=t.paths)


def tree_to_tour(t: SpanningTree) -> TourOrder:
    """Depth-first traversal order (children ascending), skipping the root:
    the root-down paths sorted, an ancestor's (a prefix of its descendants',
    padded with -1) first. Equal trees give equal tours."""
    table = t.paths
    # read root-down, row v's column j is its entry depth(v) - j, padding past v
    col = (table >= 0).sum(axis=1, keepdims=True) - 1 - np.arange(table.shape[1])
    down = np.where(col >= 0, np.take_along_axis(table, np.maximum(col, 0), axis=1), -1)
    return TourOrder(root=t.root, order=np.lexsort(down.T[::-1])[1:])  # the root sorts first


def restricted_dfs_order(t: SpanningTree, X) -> tuple[int, ...]:
    """DFS first-visit order of X inside the projected subtree T[X], children
    ascending: X's root-down paths sorted as lists.

    Used to check contiguity: this must equal the restriction of
    ``tree_to_tour(t)`` to X, and it reads nothing of the tour, so that the
    check can fail.
    """
    xs = sorted({int(v) for v in X} - {t.root})
    down = [[v for v in reversed(row) if v >= 0] for row in t.paths[xs].tolist()]
    return tuple(path[-1] for path in sorted(down))
