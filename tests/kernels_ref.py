"""Loop references for the per-trial kernels, used only by the tests.

These are the straightforward Python forms the package's array kernels
replaced: the path projection as a set of edge tuples, the good-walk test as
a loop over the walk's steps, the walk as one neighbour lookup per step, and
the exact oracles' Dreyfus-Wagner and Held-Karp tables filled one split or
one predecessor at a time. The walk draws the same random numbers as
``univlb.walks.random_walk``, and the oracles do the same float additions as
``univlb.oracles``, so parity tests compare exactly.
"""

from __future__ import annotations

import numpy as np

from univlb.adversary import CertificateFalsification


def project_paths_ref(p, X, m=None) -> float:
    """Cost of the union of the root-paths of X, each undirected edge once."""
    edges: set[tuple[int, int]] = set()
    for x in X:
        if x == p.root:
            continue
        path = p.paths[x]
        for a, b in zip(path, path[1:]):
            edges.add((a, b) if a < b else (b, a))
    if m is None:
        return float(len(edges))
    return float(sum(m.d(a, b) for a, b in edges))


def is_good_walk_ref(w, F, cfg) -> tuple[bool, int, int]:
    """(good?, bad traversal count, distinct vertex count)."""
    bad = 0
    for a, b in zip(w.vertices, w.vertices[1:]):
        if ((a, b) if a < b else (b, a)) in F:
            bad += 1
    distinct = len(set(w.vertices))
    good = bad <= cfg.bad_edge_budget and distinct >= cfg.distinct_required
    return good, bad, distinct


def random_walk_ref(g, t: int, rng) -> tuple[int, ...]:
    """The walk's vertices, one ``table[v, c]`` lookup per step on a
    regular graph and one CSR slot per step otherwise."""
    start = int(rng.integers(g.n))
    verts = [start]
    table = g.neighbor_table
    if table is not None and t > 0:
        v = start
        for c in rng.integers(0, table.shape[1], size=t):
            v = int(table[v, c])
            verts.append(v)
    else:
        indptr, indices = g.neighbors
        v = start
        for _ in range(t):
            v = int(indices[indptr[v] + rng.integers(indptr[v + 1] - indptr[v])])
            verts.append(v)
    return tuple(verts)


def steiner_exact_ref(m, X) -> tuple[float, list[tuple[int, int]]]:
    """Dreyfus-Wagner with one subset split at a time, and the backtrack
    that re-derives each choice with a scalar descending split scan."""
    terminals = sorted(set(X) | {m.root})
    if len(terminals) == 1:
        return 0.0, []
    dist = m.dist.astype(np.float64, copy=False)
    n = m.n
    # dp[S][v] = cheapest tree spanning terminal subset S plus vertex v.
    # S indexes subsets of terminals[:-1]; the last terminal seeds the final join.
    base = terminals[:-1]
    t_last = terminals[-1]
    nbits = len(base)
    dp = np.full((1 << nbits, n), np.inf)
    for i, t in enumerate(base):
        dp[1 << i] = dist[t]
    for S in range(1, 1 << nbits):
        if S.bit_count() >= 2:
            merged = dp[S]
            sub = (S - 1) & S
            while sub > 0:
                comp = S ^ sub
                if sub < comp:  # each split once
                    cand = dp[sub] + dp[comp]
                    np.minimum(merged, cand, out=merged)
                sub = (sub - 1) & S
        # Min-plus extension through every possible attachment vertex.
        dp[S] = np.min(dp[S][:, None] + dist, axis=0)
    best = float(dp[(1 << nbits) - 1][t_last])
    return best, _dw_backtrack_ref(dp, dist, base, t_last)


def _dw_backtrack_ref(
    dp: np.ndarray, dist: np.ndarray, base: list[int], t_last: int
) -> list[tuple[int, int]]:
    """Recover one optimal tree by re-deriving each DP choice."""
    eps = 1e-9
    edges: list[tuple[int, int]] = []
    stack = [((1 << len(base)) - 1, t_last)]
    while stack:
        S, v = stack.pop()
        if S.bit_count() == 1 and dist[base[S.bit_length() - 1], v] <= dp[S][v] + eps:
            t = base[S.bit_length() - 1]
            if t != v:
                edges.append((min(t, v), max(t, v)))
            continue
        # Try extension: dp[S][v] = dp[S][w] + dist(w, v) with a strictly
        # cheaper attachment w, then a split at v.
        target = dp[S][v]
        found = False
        for w in np.argsort(dp[S]):
            w = int(w)
            if w == v:
                continue
            if dp[S][w] + dist[w, v] <= target + eps:
                if w != v:
                    edges.append((min(w, v), max(w, v)))
                stack.append((S, w))
                found = True
                break
            if dp[S][w] > target:
                break
        if found:
            continue
        if S.bit_count() == 1:
            continue  # singleton already attached at v
        sub = (S - 1) & S
        while sub > 0:
            comp = S ^ sub
            if sub < comp and dp[sub][v] + dp[comp][v] <= target + eps:
                stack.append((sub, v))
                stack.append((comp, v))
                found = True
                break
            sub = (sub - 1) & S
        if not found:
            raise CertificateFalsification(
                "Dreyfus-Wagner backtrack failed to re-derive a choice")
    # The DP can produce zero-length self edges when a terminal doubles as
    # an attachment point; those were skipped above.
    return sorted(set(edges))


def tsp_exact_ref(m, X) -> tuple[float, list[int]]:
    """Held-Karp with one predecessor at a time; a strict ``<`` keeps the
    first minimum."""
    xs = sorted(set(X) - {m.root})
    k = len(xs)
    if k == 0:
        return 0.0, []
    dist = m.dist.astype(np.float64, copy=False)
    r = m.root
    if k == 1:
        return 2.0 * float(dist[r, xs[0]]), xs

    full = (1 << k) - 1
    dp = np.full((1 << k, k), np.inf)
    parent = np.full((1 << k, k), -1, dtype=np.int64)
    for j in range(k):
        dp[1 << j][j] = dist[r, xs[j]]
    for S in range(1, full + 1):
        if S.bit_count() < 2:
            continue
        for j in range(k):
            bit = 1 << j
            if not S & bit:
                continue
            prev = S ^ bit
            best, arg = np.inf, -1
            for i in range(k):
                if prev & (1 << i):
                    cand = dp[prev][i] + dist[xs[i], xs[j]]
                    if cand < best:
                        best, arg = cand, i
            dp[S][j] = best
            parent[S][j] = arg
    closing = dp[full] + dist[np.array(xs), r]
    j = int(np.argmin(closing))
    cost = float(closing[j])
    order = []
    S = full
    while j >= 0:
        order.append(xs[j])
        nj = int(parent[S][j])
        S ^= 1 << j
        j = nj
    order.reverse()
    return cost, order
