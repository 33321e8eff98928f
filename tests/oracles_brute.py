"""Independent brute-force ground truth used only by the tests.

These deliberately share no code with the package's solvers: the Steiner
oracles minimize MST cost over all vertex supersets of the terminals (on a
symmetric cost table, some optimal Steiner tree is an MST of its own vertex
set), for one terminal set or for every rooted set at once; the TSP oracle
enumerates permutations, and the girth oracle enumerates simple cycles.
"""

from __future__ import annotations

import itertools
import math


def mst_cost(dist, vertices: list[int]) -> float:
    """Prim's algorithm on the induced complete subgraph."""
    if len(vertices) <= 1:
        return 0.0
    in_tree = {vertices[0]}
    remaining = set(vertices[1:])
    total = 0.0
    while remaining:
        best, best_v = math.inf, None
        for v in remaining:
            for u in in_tree:
                w = float(dist[u][v])
                if w < best:
                    best, best_v = w, v
        total += best
        in_tree.add(best_v)
        remaining.remove(best_v)
    return total


def steiner_brute(dist, n: int, terminals: set[int]) -> float:
    """Minimum over all supersets S of the terminals of MST(S)."""
    required = sorted(terminals)
    others = [v for v in range(n) if v not in terminals]
    best = math.inf
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            best = min(best, mst_cost(dist, required + list(extra)))
    return best


def rooted_steiner_brute(dist, n: int) -> list[float]:
    """OPT of X | {0} for every X within 1..n-1, indexed by the mask with
    bit i standing for vertex i + 1: the MST of each vertex set holding 0,
    then a superset minimum, one bit at a time."""
    best = [mst_cost(dist, [0] + [v + 1 for v in range(n - 1) if mask >> v & 1])
            for mask in range(1 << (n - 1))]
    for bit in range(n - 1):
        for mask in range(1 << (n - 1)):
            if not mask >> bit & 1:
                best[mask] = min(best[mask], best[mask | 1 << bit])
    return best


def tsp_brute(dist, root: int, terminals: set[int]) -> float:
    """Exhaustive minimum over visiting orders, root to root."""
    xs = sorted(terminals - {root})
    if not xs:
        return 0.0
    best = math.inf
    for perm in itertools.permutations(xs):
        cost = dist[root][perm[0]] + dist[perm[-1]][root]
        cost += sum(dist[perm[i]][perm[i + 1]] for i in range(len(perm) - 1))
        best = min(best, float(cost))
    return best


def girth_brute(n: int, edges) -> int | None:
    """Shortest simple cycle by exhaustive path extension (small graphs only)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = None

    def extend(path: list[int], on_path: set[int]) -> None:
        nonlocal best
        if best is not None and len(path) >= best:
            return
        last = path[-1]
        for w in adj[last]:
            if w == path[0] and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif w not in on_path and w > path[0]:
                path.append(w)
                on_path.add(w)
                extend(path, on_path)
                path.pop()
                on_path.remove(w)

    for start in range(n):
        extend([start], {start})
    return best


def connected_graphs(n: int):
    """All connected labeled graphs on exactly n vertices, as edge tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        if _connected(n, edges):
            yield edges


def _connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n
