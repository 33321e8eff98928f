"""Exact optimum Steiner tree and TSP costs on small terminal sets.

These are the ratio denominators for the experiments and the ground truth for
everything else. Each oracle fills one table by array passes:

* ``steiner_table`` -- the Dreyfus-Wagner table dp[S, v] over the metric
  closure, Steiner vertices drawn from all of V. ``steiner_exact`` reads one
  cell; ``steiner_exact_witness`` backtracks an optimal tree through it.
* ``tsp_exact`` -- Held-Karp bitmask DP with fixed start/end at the root.

Each refuses instances above its budget instead of silently approximating;
callers fall back to the walk-based surrogate bounds of ``opt_surrogates``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import CertificateFalsification
from .metric import MetricSpace


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


def steiner_table(m: MetricSpace, terminals) -> np.ndarray:
    """Dreyfus-Wagner table: dp[S, v] is the cost of a cheapest tree spanning
    v and the terminals in S, where bit i of S stands for ``terminals[i]``
    (i < k - 1). The last terminal has no bit: OPT of all k is
    ``dp[-1, terminals[-1]]``, and dp[S, terminals[-1]] is OPT of S plus it."""
    dist = m.dist.astype(np.float64, copy=False)
    nbits = len(terminals) - 1
    dp = np.zeros((1 << nbits, m.n))
    for S in range(1, 1 << nbits):
        if S & (S - 1):
            sub = _splits(S)
            cand = dp[sub]
            cand += dp[S ^ sub]  # in place: one (splits, n) temporary fewer
            merged = cand.min(axis=0)
        else:
            merged = dist[terminals[S.bit_length() - 1]]
        dp[S] = np.min(merged[:, None] + dist, axis=0)
    return dp


def _splits(S: int) -> np.ndarray:
    """Each split of S into nonempty {sub, S ^ sub} once, as the sub with
    sub < S ^ sub: the nonempty subsets of S without its top bit, ascending."""
    low = S ^ (1 << (S.bit_length() - 1))
    sub = np.zeros(1, dtype=np.int64)
    while low:
        bit = low & -low
        sub = np.concatenate([sub, sub + bit])
        low ^= bit
    return sub[1:]


def _check_vertices(m: MetricSpace, vertices: list) -> None:
    for v in vertices:
        if not 0 <= v < m.n:
            raise ValueError(f"terminal {v} is not a vertex of the {m.n}-point metric")


def _checked_table(m: MetricSpace, X, budget: OracleBudget) -> tuple[np.ndarray, list]:
    """The table over sorted(X | {root}), after the range and budget checks."""
    terminals = sorted(set(X) | {m.root})
    _check_vertices(m, terminals)
    k = len(terminals)
    if k > budget.steiner_terminals:
        raise OracleRefusal(
            f"{k} terminals exceed the Steiner cap {budget.steiner_terminals}"
        )
    if (1 << k) * m.n > budget.max_table_entries:
        raise OracleRefusal("Dreyfus-Wagner table would exceed the memory guard")
    return steiner_table(m, terminals), terminals


def steiner_exact(
    m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET
) -> float:
    """Cost of the optimal Steiner tree connecting X and the root."""
    dp, terminals = _checked_table(m, X, budget)
    return float(dp[-1, terminals[-1]])


def steiner_exact_witness(
    m: MetricSpace, X, budget: OracleBudget = DEFAULT_BUDGET
) -> tuple[float, list[tuple[int, int]]]:
    """Optimal cost plus one optimal tree (as metric-closure edges)."""
    dp, terminals = _checked_table(m, X, budget)
    dist = m.dist.astype(np.float64, copy=False)
    return float(dp[-1, terminals[-1]]), _dw_backtrack(dp, dist, terminals[:-1], terminals[-1])


def _dw_backtrack(
    dp: np.ndarray, dist: np.ndarray, base: list[int], t_last: int
) -> list[tuple[int, int]]:
    """Recover one optimal tree by re-deriving each DP choice."""
    eps = 1e-9
    edges: list[tuple[int, int]] = []
    stack = [((1 << len(base)) - 1, t_last)] if base else []
    while stack:
        S, v = stack.pop()
        if S.bit_count() == 1 and dist[base[S.bit_length() - 1], v] <= dp[S][v] + eps:
            t = base[S.bit_length() - 1]
            if t != v:
                edges.append((min(t, v), max(t, v)))
            continue
        # Try extension: dp[S][v] = dp[S][w] + dist(w, v) with a strictly
        # cheaper attachment w, then a split at v. A twin w at distance 0 ties
        # dp[S][w] to dp[S][v] and has v's dp rows, so the split at v works.
        target = dp[S][v]
        found = False
        for w in map(int, np.argsort(dp[S])):
            if dp[S][w] >= target:
                break
            if dp[S][w] + dist[w, v] <= target + eps:
                edges.append((min(w, v), max(w, v)))
                stack.append((S, w))
                found = True
                break
        if found or S.bit_count() == 1:
            continue  # attached through w, or a singleton already attached at v
        sub = _splits(S)
        sub = sub[dp[sub, v] + dp[S ^ sub, v] <= target + eps]
        if not sub.size:
            raise CertificateFalsification(
                "Dreyfus-Wagner backtrack failed to re-derive a choice")
        split = int(sub[-1])  # the largest, as a descending scan finds first
        stack += [(split, v), (S ^ split, v)]
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
    _check_vertices(m, xs)
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
    d = dist[np.ix_(xs, xs)]
    bits = np.arange(k)
    # dp[S, j]: cheapest root path through S ending at j; inf for j outside S,
    # so only predecessors in S ^ {j} can win, and argmin keeps the first tie.
    dp = np.full((1 << k, k), np.inf)
    parent = np.full((1 << k, k), -1, dtype=np.int64)
    dp[1 << bits, bits] = dist[r, xs]
    for S in range(1, full + 1):
        if S & (S - 1):
            js = bits[((S >> bits) & 1) == 1]
            cand = dp[S ^ (1 << js)] + d[:, js].T  # cand[row of j, i]
            arg = cand.argmin(axis=1)
            dp[S, js] = cand[np.arange(len(js)), arg]
            parent[S, js] = arg
    closing = dp[full] + dist[xs, r]
    j = int(np.argmin(closing))
    cost, order, S = float(closing[j]), [], full
    while j >= 0:
        order.append(xs[j])
        S, j = S ^ (1 << j), int(parent[S, j])
    return cost, order[::-1]


@dataclass(frozen=True)
class SurrogateBounds:
    steiner: float
    tsp: float


def opt_surrogates(step_counts: list[int], diam: float) -> SurrogateBounds:
    """Walk-based upper bounds on the optima for walk-induced terminal sets,
    from the walks' step counts.

    Steiner: traverse the single walk (t edges) and connect once to the root
    (at most the diameter): t + diam. TSP with two walks: root to first walk,
    traverse it, hop to the second, traverse it, return: t1 + t2 + 3*diam.
    """
    if not step_counts:
        raise ValueError("need at least one walk")
    t_sum = sum(step_counts)
    if len(step_counts) == 1:
        steiner = t_sum + diam
        tsp = 2.0 * steiner
    else:
        steiner = t_sum + len(step_counts) * diam
        tsp = t_sum + (len(step_counts) + 1) * diam
    return SurrogateBounds(steiner=float(steiner), tsp=float(tsp))
