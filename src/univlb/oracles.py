"""Exact optimum Steiner tree and TSP costs on small terminal sets.

These are the ratio denominators for the experiments and the ground truth for
everything else. Both solvers are exact dynamic programs:

* ``steiner_exact`` -- Dreyfus-Wagner over the metric closure, with Steiner
  vertices drawn from all of V (subset-merge plus min-plus extension).
* ``tsp_exact`` -- Held-Karp bitmask DP with fixed start/end at the root.

Each refuses instances above its budget instead of silently approximating;
callers fall back to the walk-based surrogate bounds of ``opt_surrogates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import CertificateFalsification
from .metric import MetricSpace
from .walks import WalkTrace


class OracleRefusal(ValueError):
    """Instance exceeds the oracle budget; caller should use a surrogate."""


@dataclass(frozen=True)
class OracleBudget:
    steiner_terminals: int = 12   # |X| + root
    tsp_terminals: int = 14       # |X|
    max_table_entries: int = 50_000_000

    def __post_init__(self) -> None:
        if self.steiner_terminals < 2 or self.tsp_terminals < 2:
            raise ValueError("oracle caps must be at least 2")


DEFAULT_BUDGET = OracleBudget()


def steiner_exact(
    m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET
) -> float:
    """Cost of the optimal Steiner tree connecting X and the root."""
    cost, _ = steiner_exact_witness(m, X, budget)
    return cost


def steiner_exact_witness(
    m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[float, list[tuple[int, int]]]:
    """Optimal cost plus one optimal tree (as metric-closure edges)."""
    terminals = sorted(set(X) | {m.root})
    k = len(terminals)
    if k > budget.steiner_terminals:
        raise OracleRefusal(
            f"{k} terminals exceed the Steiner cap {budget.steiner_terminals}"
        )
    if (1 << k) * m.n > budget.max_table_entries:
        raise OracleRefusal("Dreyfus-Wagner table would exceed the memory guard")
    if k == 1:
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
    edges = _dw_backtrack(dp, dist, base, t_last)
    return best, edges


def _dw_backtrack(
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


def tsp_exact(m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET) -> float:
    cost, _ = tsp_exact_witness(m, X, budget)
    return cost


def tsp_exact_witness(
    m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[float, list[int]]:
    """Optimal tour cost over X with fixed start/end at the root, plus the order."""
    xs = sorted(set(X) - {m.root})
    k = len(xs)
    if k > budget.tsp_terminals:
        raise OracleRefusal(f"{k} terminals exceed the TSP cap {budget.tsp_terminals}")
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


@dataclass(frozen=True)
class SurrogateBounds:
    steiner: float
    tsp: float


def opt_surrogates(
    walks: list[WalkTrace], girth_t: int, diam: float
) -> SurrogateBounds:
    """Walk-based upper bounds on the optima for walk-induced terminal sets.

    Steiner: traverse the single walk (t edges) and connect once to the root
    (at most the diameter): t + diam. TSP with two walks: root to first walk,
    traverse it, hop to the second, traverse it, return: t1 + t2 + 3*diam.
    """
    if not walks:
        raise ValueError("need at least one walk")
    t_sum = sum(w.steps for w in walks)
    if len(walks) == 1:
        steiner = walks[0].steps + diam
        tsp = 2.0 * steiner
    else:
        steiner = t_sum + len(walks) * diam
        tsp = t_sum + (len(walks) + 1) * diam
    return SurrogateBounds(steiner=float(steiner), tsp=float(tsp))
