"""Randomized hierarchical tree embeddings (ball-carving HSTs).

``frt_samples`` carves a metric's trees together. Each tree draws beta
uniform in [1, 2), then a permutation pi. From the top scale (the least
power of two at least the diameter) down, every point at level L joins the
ball of the first point in pi within beta * 2^(L-1) of it; its cluster one
level down is its cluster's points in the same ball. Two array passes per
level write a row of each tree's label table ``HST.centers``: every point's
cluster center, its member of lowest rank in pi. The rest reads the tables,
with no node objects: HST distances are c(leaf u) + c(leaf v) - 2 c(lca),
c the edge weight summed from the root down; contraction makes a point's
parent the center of the cluster just above the highest cluster it
centers, then flips the path from the metric root to pi's first point; the
O(log n) expected stretch is measured from one ancestor table. Each
(trees x points x points) pass takes as many trees as its temporaries fit
in ``CHUNK_BYTES`` (2 MiB): the carving holds the distances in pi order
and a bool mask, the HST and tree distances float64 distances and LCA
costs and a bool mask (the stretch's (trees x points x depth) ancestor
table comes on top). Large metrics go a tree at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import MetricSpace
from .solutions import SpanningTree

#: Bytes the temporaries of one pass may hold: a batch of trees here, a
#: chunk of trials in ``experiments``. Keeps peak memory independent of the
#: number of trees and trials.
CHUNK_BYTES = 1 << 21

#: Bytes per (tree, point, point) cell of the HST and tree distances: the
#: float64 distances and LCA costs and one bool mask.
_DIST_BYTES = 17


@dataclass(frozen=True, eq=False)
class HST:
    """One tree's carving. Row l of ``centers`` holds each point's cluster
    center at level top - l; ``leaf[v]`` is the first row where v is alone.
    An edge from row l up weighs beta * 2^(top - l + 2)."""

    beta: float
    top: int
    centers: np.ndarray  # (rows, n)
    leaf: np.ndarray     # (n,)

    @property
    def n(self) -> int:
        return self.centers.shape[1]

    @property
    def total_weight(self) -> float:
        """Sum of the edge weights: beta times an exact sum of powers of two."""
        rows = np.arange(len(self.centers))[:, None]
        nodes = (self.centers == np.arange(self.n)) & (rows > 0) & (rows <= self.leaf)
        return self.beta * float(nodes.sum(axis=1) @ 2.0 ** (self.top + 2 - rows[:, 0]))


def frt_samples(m: MetricSpace, rngs: list[np.random.Generator]) -> list[HST]:
    """One HST per generator from the ball-carving distribution over ``m``,
    carved together. A level's clusters are keyed by their parent's center
    and their ball, and each one's center is the first point in pi with its
    key: the first True of a row of ``key == key[pi]``."""
    n = m.n
    draws = [(float(rng.uniform(1.0, 2.0)), rng.permutation(n)) for rng in rngs]
    if np.count_nonzero(m.dist == 0) > n:  # ball carving never parts two such points
        u, v = next((u, v) for u, v in np.argwhere(m.dist == 0).tolist() if u != v)
        raise ValueError(f"points {u} and {v} are at distance 0; an HST needs distinct points")
    diam = float(m.dist.max())
    top = max(0, math.ceil(math.log2(diam))) if diam > 0 else 0
    # 2^low <= the least distance, so carving level low leaves every point alone
    low = math.frexp(float(m.dist.min(initial=diam, where=m.dist > 0)))[1] - 1
    out = []
    batches = _batches(draws, n, m.dist.itemsize + 1)
    size = n * n * max(map(len, batches), default=0)
    cols, hits = np.empty(size, dtype=m.dist.dtype), np.empty(size, dtype=bool)
    for batch in batches:
        beta = np.array([b for b, _ in batch])
        perm = np.stack([p for _, p in batch])
        # dist[v, t, i] is the distance from v to pi_t[i]; the buffers serve every batch
        dist = cols[:perm.size * n].reshape(n, *perm.shape)
        hit = hits[:perm.size * n].reshape(n, *perm.shape)
        np.take(m.dist, perm, axis=1, out=dist, mode="clip")
        center = np.repeat(perm[:, :1], n, axis=1)
        centers = [center]
        for level in range(top, low - 1, -1):
            np.less_equal(dist, (beta * 2.0 ** (level - 1))[:, None], out=hit)
            ball = np.argmax(hit, axis=2).T
            key = center * n + ball
            np.equal(key.T[:, :, None], np.take_along_axis(key, perm, axis=1), out=hit)
            center = np.take_along_axis(perm, np.argmax(hit, axis=2).T, axis=1)
            centers.append(center)
        table = np.stack(centers, axis=1)
        cells = np.arange(table.size // n)[:, None] * n + table.reshape(-1, n)
        alone = np.bincount(cells.ravel())[cells].reshape(table.shape) == 1
        out += [HST(beta=b, top=top, centers=c, leaf=lf)
                for b, c, lf in zip(beta.tolist(), table, np.argmax(alone, axis=1))]
    return out


def _batches(items: list, n: int, cell_bytes: int) -> list[list]:
    """``items`` in runs whose (run x n x n) temporaries of ``cell_bytes`` a
    cell fit CHUNK_BYTES."""
    per = max(1, CHUNK_BYTES // (n * n * cell_bytes))
    return [items[lo:lo + per] for lo in range(0, len(items), per)]


def frt_sample(m: MetricSpace, rng: np.random.Generator) -> HST:
    """One HST from the ball-carving distribution over ``m``."""
    return frt_samples(m, [rng])[0]


def hst_distances(hsts: list[HST]) -> np.ndarray:
    """(trees, n, n) HST distances between the leaves of every pair of
    points, for trees of one metric."""
    centers = np.stack([h.centers for h in hsts])
    leaf = np.stack([h.leaf for h in hsts])
    _, rows, n = centers.shape
    weight = np.array([[h.beta] for h in hsts]) * 2.0 ** (hsts[0].top + 2 - np.arange(rows))
    weight[:, 0] = 0.0
    costs = np.cumsum(weight, axis=1)  # c by row, summed from the root down
    at_leaf = np.take_along_axis(costs, leaf, axis=1)
    out = at_leaf[:, :, None] + at_leaf[:, None, :]
    lca = np.zeros_like(out)  # c at the deepest row where the two share a center
    for row in range(1, rows):
        np.copyto(lca, costs[:, row, None, None],
                  where=centers[:, row, :, None] == centers[:, row, None, :])
    each = np.arange(n)
    lca[:, each, each] = at_leaf  # a point paired with itself: its leaf
    lca *= 2
    out -= lca
    return out


def hsts_dominate(hsts: list[HST], m: MetricSpace) -> np.ndarray:
    """Per tree, True iff HST distance >= metric distance for every pair."""
    tol = 1e-12 * max(1.0, float(m.dist.max()))
    return np.concatenate([(hst_distances(batch) >= m.dist - tol).all(axis=(1, 2))
                           for batch in _batches(hsts, m.n, _DIST_BYTES)])


def hst_dominates(h: HST, m: MetricSpace) -> bool:
    """True iff HST distance >= metric distance for every pair."""
    return bool(hsts_dominate([h], m)[0])


def hsts_to_spanning_trees(hsts: list[HST], m: MetricSpace) -> list[SpanningTree]:
    """Contract every cluster of each HST to its center, rooted at the metric
    root. A kept edge is no longer than the HST edge it replaces (a child's
    center lies in the parent's cluster), so the cost is at most the weight."""
    centers = np.stack([h.centers for h in hsts])
    trees, rows, n = centers.shape
    each = np.arange(trees)
    highest = np.argmax(centers == np.arange(n), axis=1)
    up = np.take_along_axis(centers, np.maximum(highest - 1, 0)[:, None, :], axis=1)[:, 0]
    parent = up.copy()
    below = np.full(trees, m.root)
    for _ in range(rows):  # each step up the path climbs a row or more
        above = up[each, below]
        parent[each, above] = np.where(above == below, parent[each, above], below)
        below = above
    parent[:, m.root] = m.root
    cost = m.dist[np.arange(n), parent].astype(np.float64)
    return [SpanningTree(root=m.root, parent=p, edge_cost=c) for p, c in zip(parent, cost)]


def hst_to_spanning_tree(h: HST, m: MetricSpace) -> SpanningTree:
    """Contract every HST node to its center, rooted at the metric root."""
    return hsts_to_spanning_trees([h], m)[0]


def stretch_stats(m: MetricSpace, trees: list[SpanningTree]) -> dict[str, float]:
    """Empirical stretch of a sampled spanning-tree distribution.

    The stretch of a pair is mean tree-path cost over samples divided by the
    metric distance; the distribution's measured stretch is the max over
    pairs, and the mean over pairs is reported alongside.
    """
    total = np.zeros((m.n, m.n))
    for batch in _batches(trees, m.n, _DIST_BYTES):
        for dist in tree_distances([t.parent for t in batch], [t.edge_cost for t in batch],
                                   range(m.n)):
            total += dist
    upper = np.triu_indices(m.n, 1)
    ratios = (total / len(trees))[upper] / m.dist[upper]
    return {"max_pair_stretch": float(ratios.max()), "mean_pair_stretch": float(ratios.mean())}


def tree_distances(parent, weight, points) -> np.ndarray:
    """Tree path costs between every pair of ``points`` (node indices).

    ``parent[v]`` is v's parent, with the root its own parent or -1, and
    ``weight[v]`` the cost of the edge from v to its parent; rows of both,
    one per tree, give one table per tree. With c(v) the root-path cost,
    summed from the root down, the distance is c(u) + c(v) - 2 c(lca). In
    the (trees x points x depth) ancestor table, ``up[t, i, d]`` is the
    ancestor of ``points[i]`` at depth d, or the point itself below its
    depth: two points agree down to their LCA and nowhere below."""
    given = np.asarray(parent, dtype=np.int64)
    trees = given.reshape(-1, given.shape[-1])
    own = np.arange(trees.size).reshape(trees.shape)  # node v of tree t is own[t, v]
    par = np.where(trees < 0, own, trees + own - own[0]).ravel()
    w = np.asarray(weight, dtype=np.float64).ravel()
    depth = np.where(par == own.ravel(), 0, -1)
    cost = np.zeros(len(par))
    while (todo := depth < 0).any():
        ready = todo & (depth[par] >= 0)
        if not ready.any():
            raise ValueError("parent map does not reach a root")
        depth[ready] = depth[par[ready]] + 1
        cost[ready] = cost[par[ready]] + w[ready]

    pts = own[:, np.asarray(points, dtype=np.int64)]
    each, rows = np.arange(len(trees))[:, None], np.arange(pts.shape[1])
    up = np.repeat(pts[:, :, None], depth[pts].max(initial=0) + 1, axis=2)
    node = pts
    for _ in range(up.shape[2]):  # the deepest point reaches the root last
        up[each, rows, depth[node]] = node
        node = par[node]
    at = cost[pts]
    out = at[:, :, None] + at[:, None, :]
    lca = np.zeros_like(out)  # c of the deepest ancestor the two share
    for d in range(up.shape[2]):
        col = up[:, :, d]
        np.copyto(lca, cost[col][:, :, None], where=col[:, :, None] == col[:, None, :])
    lca *= 2
    out -= lca
    return out.reshape(given.shape[:-1] + out.shape[1:])
