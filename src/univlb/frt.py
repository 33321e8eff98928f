"""Randomized hierarchical tree embeddings (ball-carving HSTs).

``frt_sample`` draws one hierarchically well-separated tree: a shared random
permutation settles every point into the ball of the first permutation point
within radius beta * 2^(i-1) at each level i, with beta uniform in [1, 2) and
the top scale the smallest power of two at least the diameter. A level's
balls are settled for all points at once, one array pass per level. Tree
distances dominate metric distances on every sample by construction; the
O(log n) expected stretch is measured, not assumed.

``tree_distances`` finds the lowest common ancestor of every pair of points
in one pass over a (points x depth) table of their ancestors, so the HST
domination check and the stretch statistics pay O(points^2 * depth) array
work and no per-pair loop.

``hst_to_spanning_tree`` collapses an HST onto a spanning tree of the metric
points by contracting every internal node to a representative member, losing
only bounded cost (total tree cost never exceeds total HST weight).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import MetricSpace
from .solutions import SpanningTree


@dataclass
class HstNode:
    level: int
    center: int                # representative member of the cluster
    members: tuple[int, ...]
    parent: int                # index into HST.nodes; -1 at the root
    parent_weight: float       # weight of the edge to the parent; 0 at the root
    children: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class HST:
    nodes: tuple[HstNode, ...]
    root: int
    leaf_of: tuple[int, ...]   # vertex -> leaf node index

    @property
    def n(self) -> int:
        return len(self.leaf_of)

    @property
    def total_weight(self) -> float:
        return float(sum(nd.parent_weight for nd in self.nodes))

    def distances(self) -> np.ndarray:
        """HST path distances between the leaves of every pair of points."""
        return tree_distances([nd.parent for nd in self.nodes],
                              [nd.parent_weight for nd in self.nodes], self.leaf_of)


def frt_sample(m: MetricSpace, rng: np.random.Generator) -> HST:
    """One HST from the ball-carving distribution over ``m``.

    Draws beta, then the permutation pi. A level's carving does not depend
    on the cluster: every point of a cluster at level L joins the child of
    the first point in pi order within beta * 2^(L-1) of it, so each level
    settles all points still in clusters of two or more at once, as the
    first True of their rows of ``dist[:, pi] <= radius``. Nodes are then
    numbered as a depth-first carving would number them: a pending stack,
    children pushed in pi order of their ball's point."""
    n = m.n
    beta = float(rng.uniform(1.0, 2.0))
    perm = rng.permutation(n)

    if n == 1:
        leaf = HstNode(level=0, center=0, members=(0,), parent=-1, parent_weight=0.0)
        return HST(nodes=(leaf,), root=0, leaf_of=(0,))

    if np.count_nonzero(m.dist == 0) > n:  # ball carving never parts two such points
        u, v = next((u, v) for u, v in np.argwhere(m.dist == 0).tolist() if u != v)
        raise ValueError(f"points {u} and {v} are at distance 0; an HST needs distinct points")
    diam = float(m.dist.max())
    top = max(0, math.ceil(math.log2(diam))) if diam > 0 else 0
    rank = [0] * n
    for i, v in enumerate(perm.tolist()):
        rank[v] = i

    # carved[i]: the clusters at level top - 1 - i, in the order of their
    # parent cluster and then of their ball's point in pi, as (first child
    # cluster of each cluster one level up, center, members). `points` are
    # the points of clusters with two or more members, each cluster's run
    # ascending, `cluster` their cluster there, and `parents` the number of
    # clusters there.
    carved = []
    by_rank = m.dist[:, perm]
    points, cluster, parents, level = list(range(n)), [0] * n, 1, top
    while points:
        ball = np.argmax(by_rank[points] <= beta * 2.0 ** (level - 1), axis=1).tolist()
        groups: dict[int, list[int]] = {}
        for u, c, w in zip(points, cluster, ball):
            groups.setdefault(c * n + w, []).append(u)
        keys = sorted(groups)
        members = [tuple(groups[k]) for k in keys]
        first = [0] * (parents + 1)
        for k in keys:
            first[k // n + 1] += 1
        carved.append((list(itertools.accumulate(first)),
                       [min(g, key=rank.__getitem__) for g in members], members))
        points = [u for g in members if len(g) > 1 for u in g]
        cluster = [c for c, g in enumerate(members) if len(g) > 1 for _ in g]
        parents, level = len(members), level - 1

    nodes = [HstNode(level=top, center=int(perm[0]), members=tuple(range(n)),
                     parent=-1, parent_weight=0.0)]
    where = [0]  # the cluster index of each node at its level
    leaf_of = [-1] * n
    pending = [0]
    while pending:
        idx = pending.pop()
        node = nodes[idx]
        if len(node.members) == 1:
            leaf_of[node.members[0]] = idx
            continue
        first, centers, members = carved[top - node.level]
        # Any two members of the level-`level` cluster are within 2*beta*2^level
        # of each other, so this weight dominates every contracted edge.
        child_weight = beta * 2.0 ** (node.level + 1)
        for c in range(first[where[idx]], first[where[idx] + 1]):
            nodes.append(HstNode(level=node.level - 1, center=centers[c], members=members[c],
                                 parent=idx, parent_weight=child_weight))
            where.append(c)
            node.children.append(len(nodes) - 1)
            pending.append(len(nodes) - 1)

    return HST(nodes=tuple(nodes), root=0, leaf_of=tuple(leaf_of))


def hst_dominates(h: HST, m: MetricSpace) -> bool:
    """True iff HST distance >= metric distance for every pair."""
    tol = 1e-12 * max(1.0, float(m.dist.max()))
    return bool(np.all(h.distances() >= m.dist - tol))


def hst_to_spanning_tree(h: HST, m: MetricSpace) -> SpanningTree:
    """Contract every HST node to its representative member.

    Connect each child's representative to its parent's; duplicates collapse.
    The result spans V, is re-rooted at the metric root, and its total cost
    is at most the total HST weight (each kept edge is no longer than the HST
    edge it replaces, because a child's representative lies in the parent's
    cluster).
    """
    adj: dict[int, set[int]] = {v: set() for v in range(m.n)}
    for nd in h.nodes:
        if nd.parent < 0:
            continue
        a, b = nd.center, h.nodes[nd.parent].center
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    parent = [-1] * m.n
    parent[m.root] = m.root
    stack = [m.root]
    seen = {m.root}
    while stack:
        v = stack.pop()
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                stack.append(w)
    if len(seen) != m.n:
        raise ValueError("contracted HST does not span the point set")
    costs = tuple(
        0.0 if v == m.root else float(m.dist[v, parent[v]]) for v in range(m.n)
    )
    return SpanningTree(root=m.root, parent=tuple(parent), edge_cost=costs)


def stretch_stats(m: MetricSpace, trees: list[SpanningTree]) -> dict[str, float]:
    """Empirical stretch of a sampled spanning-tree distribution.

    The stretch of a pair is mean tree-path cost over samples divided by the
    metric distance; the distribution's measured stretch is the max over
    pairs, and the mean over pairs is reported alongside.
    """
    points = range(m.n)
    total = np.zeros((m.n, m.n))
    for t in trees:
        total += tree_distances(t.parent, t.edge_cost, points)
    upper = np.triu_indices(m.n, 1)
    ratios = (total / len(trees))[upper] / m.dist[upper]
    return {"max_pair_stretch": float(ratios.max()), "mean_pair_stretch": float(ratios.mean())}


def tree_distances(parent, weight, points) -> np.ndarray:
    """Tree path costs between every pair of ``points`` (node indices).

    ``parent[v]`` is v's parent, with the root its own parent or -1, and
    ``weight[v]`` the cost of the edge from v to its parent. With c(v) the
    root-path cost, accumulated from the root down, the distance is
    c(u) + c(v) - 2 c(lca). The LCA of all pairs comes from one
    (points x depth) table of ancestors, ``up[i, d]`` the ancestor of
    ``points[i]`` at depth d and the point itself below its own depth: two
    points' ancestors agree down to their LCA's depth and nowhere below,
    so the LCA depth is the number of depths where they agree, less one.
    A point paired with itself agrees at every depth, down to the table's
    last column, which holds the point."""
    n = len(parent)
    par = np.asarray(parent, dtype=np.int64)
    par = np.where(par < 0, np.arange(n), par)
    w = np.asarray(weight, dtype=np.float64)
    depth = np.where(par == np.arange(n), 0, -1)
    cost = np.zeros(n)
    while (todo := depth < 0).any():
        ready = todo & (depth[par] >= 0)
        if not ready.any():
            raise ValueError("parent map does not reach a root")
        depth[ready] = depth[par[ready]] + 1
        cost[ready] = cost[par[ready]] + w[ready]

    pts = np.asarray(points, dtype=np.int64)
    rows = np.arange(len(pts))
    up = np.repeat(pts[:, None], depth[pts].max(initial=0) + 1, axis=1)
    node = pts
    for _ in range(up.shape[1]):  # the deepest point reaches the root last
        up[rows, depth[node]] = node
        node = par[node]
    agree = np.zeros((len(pts), len(pts)), dtype=np.int64)
    for d in range(up.shape[1]):
        agree += up[:, d, None] == up[None, :, d]
    lca = up[rows[:, None], agree - 1]
    return cost[pts][:, None] + cost[pts][None, :] - 2 * cost[lca]
