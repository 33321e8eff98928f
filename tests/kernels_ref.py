"""Loop references for the per-trial kernels, used only by the tests.

These are the straightforward Python forms the package's array kernels
replaced: the path projection as a set of edge tuples, the first edges as a
set of edge tuples and the good-walk test as a loop over the walk's steps
along them, the walk as one neighbour lookup per step, separation and block
alternation over Python sets, the tour projection as a loop over its legs,
the exact oracles' Dreyfus-Wagner and Held-Karp tables filled one split or
one predecessor at a time, the Dreyfus-Wagner table filled one subset at a
time, the FRT ball carving one member and one permutation point at a time,
the tree-distance LCA found by stepping the deeper end of every pair up one
edge per round, and the steiner-lb and tsp-lb trial loops, one trial at a
time. The walk draws the same random numbers as
``univlb.walks.random_walk``, and the oracles, tree distances and tour legs
do the same float additions as the package, so parity tests compare exactly.

The graph layer's references are the scipy forms the package once used, and
this file is the only place that imports scipy: the sparse adjacency, the
walk operator as its float copy, the metric closure as a boolean sparse
product, the walk rows by a stable argsort of the edge list, the LPS edges
by a global ``np.unique`` over the closure's pairs, the path check by
``np.isin`` over edge keys, and the CSV written one ``_cell`` at a time.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.sparse as sp

from univlb import experiments, rng as rngs
from univlb.adversary import (
    CertificateFalsification,
    SteinerAdversaryConfig,
    TspAdversaryConfig,
    steiner_certificate,
    tsp_certificate,
)
from univlb.expanders import ExpanderError, _canon_rows, _pack, legendre_symbol, lps_generators
from univlb.experiments import LB_COLUMNS, ConfigError, ExperimentReport
from univlb.frt import HST, HstNode
from univlb.graphs import Graph
from univlb.oracles import OracleRefusal, opt_surrogates, steiner_exact, tsp_exact


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


def first_edges_ref(p) -> frozenset[tuple[int, int]]:
    """The set F of first edges (v, v1) of the collection, undirected."""
    out = set()
    for v, path in enumerate(p.paths):
        if v != p.root and len(path) >= 2:
            a, b = path[0], path[1]
            out.add((a, b) if a < b else (b, a))
    return frozenset(out)


def is_good_walk_ref(w, F, cfg) -> tuple[bool, int, int]:
    """(good?, bad traversal count, distinct vertex count) of the walk's
    vertex sequence ``w`` against the first-edge set ``F``."""
    bad = 0
    for a, b in zip(w, w[1:]):
        if ((a, b) if a < b else (b, a)) in F:
            bad += 1
    distinct = len(set(w))
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


def project_tour_ref(sigma, m, X) -> float:
    """c(r, x_1) + sum c(x_i, x_{i+1}) + c(x_k, r) over X in sigma's order,
    one leg at a time."""
    pos = sigma.positions
    xs = sorted((v for v in X if v != sigma.root), key=pos.__getitem__)
    if not xs:
        return 0.0
    cost = m.d(sigma.root, xs[0]) + m.d(xs[-1], sigma.root)
    for a, b in zip(xs, xs[1:]):
        cost += m.d(a, b)
    return cost


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


def steiner_table_ref(m, terminals) -> np.ndarray:
    """``oracles.steiner_table`` one subset S at a time, in increasing S:
    all splits of S gathered and reduced, then S extended through every
    attachment vertex in one (n, n) pass."""
    dist = m.dist.astype(np.float64, copy=False)
    nbits = len(terminals) - 1
    dp = np.zeros((1 << nbits, m.n))
    for S in range(1, 1 << nbits):
        if S & (S - 1):
            sub = _splits_ref(S)
            cand = dp[sub]
            cand += dp[S ^ sub]
            merged = cand.min(axis=0)
        else:
            merged = dist[terminals[S.bit_length() - 1]]
        dp[S] = np.min(merged[:, None] + dist, axis=0)
    return dp


def _splits_ref(S: int) -> np.ndarray:
    """Each split of S into nonempty {sub, S ^ sub} once, as the sub without
    S's top bit, ascending."""
    low = S ^ (1 << (S.bit_length() - 1))
    sub = np.zeros(1, dtype=np.int64)
    while low:
        bit = low & -low
        sub = np.concatenate([sub, sub + bit])
        low ^= bit
    return sub[1:]


def frt_sample_ref(m, rng) -> HST:
    """``frt.frt_sample`` carving one cluster at a time: each member scans
    the permutation for the first point within the level's radius."""
    n = m.n
    beta = float(rng.uniform(1.0, 2.0))
    pi = [int(v) for v in rng.permutation(n)]
    rank = {v: i for i, v in enumerate(pi)}
    if n == 1:
        leaf = HstNode(level=0, center=0, members=(0,), parent=-1, parent_weight=0.0)
        return HST(nodes=(leaf,), root=0, leaf_of=(0,))
    diam = float(m.dist.max())
    top = max(0, math.ceil(math.log2(diam))) if diam > 0 else 0

    def rep(members: tuple[int, ...]) -> int:
        return min(members, key=rank.__getitem__)

    nodes = [HstNode(level=top, center=rep(tuple(range(n))), members=tuple(range(n)),
                     parent=-1, parent_weight=0.0)]
    leaf_of = [-1] * n
    pending = [0]
    while pending:
        idx = pending.pop()
        node = nodes[idx]
        if len(node.members) == 1:
            leaf_of[node.members[0]] = idx
            continue
        radius = beta * 2.0 ** (node.level - 1)
        groups: dict[int, list[int]] = {}
        for u in node.members:
            for w in pi:
                if m.dist[u, w] <= radius:
                    groups.setdefault(w, []).append(u)
                    break
        child_weight = beta * 2.0 ** (node.level + 1)
        for w in pi:
            if w not in groups:
                continue
            members = tuple(sorted(groups[w]))
            nodes.append(HstNode(level=node.level - 1, center=rep(members), members=members,
                                 parent=idx, parent_weight=child_weight))
            node.children.append(len(nodes) - 1)
            pending.append(len(nodes) - 1)
    return HST(nodes=tuple(nodes), root=0, leaf_of=tuple(leaf_of))


def tree_distances_ref(parent, weight, points) -> np.ndarray:
    """``frt.tree_distances`` with the LCA of every pair found by stepping
    the deeper end of each unmet pair up one edge per round."""
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
    a = np.repeat(pts[:, None], len(pts), axis=1)
    b = a.T.copy()
    while (unmet := a != b).any():
        up_a = unmet & (depth[a] >= depth[b])
        up_b = unmet & ~up_a
        a[up_a] = par[a[up_a]]
        b[up_b] = par[b[up_b]]
    return cost[pts][:, None] + cost[pts][None, :] - 2 * cost[a]


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


def check_separation_ref(q1, q2, m, t) -> bool:
    """E1 with the cross-pair implication checked over the walks' vertex sets."""
    if m.d(q1[0], q2[0]) < 3 * t:
        return False
    for u in set(q1):
        for v in set(q2):
            if m.d(u, v) < t:
                raise CertificateFalsification(
                    f"separation implication violated: d({u},{v}) < {t}")
    return True


def block_alternation_ref(sigma, x1, x2, blocks, fraction=3.0 / 4.0):
    """(blocks1, blocks2, shared, E2) from the block sets of x1 and x2."""
    pos, size = sigma.positions, max(1, len(sigma.order) // blocks)
    hit1, hit2 = ({min(pos[v] // size, blocks - 1) for v in x if v != sigma.root}
                  for x in (x1, x2))
    b1, b2, shared = len(hit1), len(hit2), len(hit1 & hit2)
    e2 = b1 >= fraction * blocks and b2 >= fraction * blocks
    if e2 and fraction >= 3.0 / 4.0 and shared < blocks / 4.0:
        raise CertificateFalsification("inclusion-exclusion violated: E2 with < blocks/4 shared")
    return b1, b2, shared, e2


def _walk_ref(cfg, g, t, tag, trial) -> tuple[int, ...]:
    return random_walk_ref(g, t, rngs.stream(cfg.seed, tag, trial))


def _pick_ref(cfg, count, trial) -> int:
    if count == 1:
        return 0
    return int(rngs.stream(cfg.seed, rngs.SOLUTION, trial).integers(count))


def _opt_ref(problem, m, x, walks, diam, budget, oracle_cap):
    if m is not None and 0 < oracle_cap and len(x) <= oracle_cap:
        try:
            exact = steiner_exact if problem == "steiner" else tsp_exact
            return exact(m, x, budget), "oracle"
        except OracleRefusal:
            pass
    bounds = opt_surrogates([len(w) - 1 for w in walks], diam)
    if problem == "steiner":
        return bounds.steiner, "walk-bound"
    return bounds.tsp, "walk-tour"


def steiner_lb_ref(cfg) -> ExperimentReport:
    """steiner-lb one trial at a time: rows and the trial counts."""
    inst = experiments.load_instance(
        cfg.graph, cfg.metric_cap, need_metric=(cfg.solution == "frt" or cfg.oracle_cap > 0))
    if inst.girth is None:
        raise ConfigError("acyclic graph has no girth; steiner-lb needs cycles")
    t = max(1, inst.girth // 3) if cfg.t == "auto" else int(cfg.t)
    adv = SteinerAdversaryConfig(t=t, certificate_mode=(3 * t <= inst.girth))
    solutions = experiments._steiner_solutions(cfg, inst)
    certifiable = [adv.certificate_mode and graph_paths_ref(p, inst.graph)
                   for p in solutions]
    budget = experiments._budget(cfg.oracle_cap)
    rows, good_count, certified = [], 0, 0
    for trial in range(cfg.trials):
        pick = _pick_ref(cfg, len(solutions), trial)
        paths = solutions[pick]
        walk = _walk_ref(cfg, inst.graph, adv.t, rngs.WALK, trial)
        x = set(walk) - {paths.root}
        good, _, _ = is_good_walk_ref(walk, first_edges_ref(paths), adv)
        good_count += good
        lhs = project_paths_ref(paths, x, inst.metric)
        if good and certifiable[pick]:
            cert = steiner_certificate(paths, np.array(walk), inst.girth, adv, inst.metric)
            certified += 1
            if not cert.holds:
                raise CertificateFalsification(
                    f"steiner certificate failed at trial {trial}: {cert.witness}")
            assert cert.lhs == lhs
        opt, opt_kind = _opt_ref("steiner", inst.metric, x, [walk], inst.diameter, budget,
                                 cfg.oracle_cap)
        rows.append({
            "trial": trial, "n": inst.graph.n, "d": inst.d, "girth": inst.girth,
            "t": adv.t, "x_size": len(x), "good": good, "e1": None, "e2": None,
            "shared": None, "lhs": lhs, "rhs": len(x) * inst.girth / 6.0,
            "ratio": lhs / opt if opt > 0 else float("nan"), "opt_kind": opt_kind,
        })
    return ExperimentReport(config=cfg.values, columns=LB_COLUMNS, rows=rows, aggregates={
        "good_walk_frequency": good_count / cfg.trials if cfg.trials else 0.0,
        "certified_samples": certified})


def tsp_lb_ref(cfg) -> ExperimentReport:
    """tsp-lb one trial at a time: rows and the trial counts."""
    inst = experiments.load_instance(cfg.graph, cfg.metric_cap, need_metric=True)
    m = inst.metric
    base = TspAdversaryConfig.paper_default(inst.graph.n, inst.d)
    adv = TspAdversaryConfig(t=base.t if cfg.t == "auto" else int(cfg.t),
                             blocks=base.blocks if cfg.blocks == "auto" else int(cfg.blocks))
    tours = experiments._tour_solutions(cfg, inst)
    budget = experiments._budget(cfg.oracle_cap)
    rows, qualifying, e1_count = [], 0, 0
    for trial in range(cfg.trials):
        sigma = tours[_pick_ref(cfg, len(tours), trial)]
        q1 = _walk_ref(cfg, inst.graph, adv.t, rngs.WALK, trial)
        q2 = _walk_ref(cfg, inst.graph, adv.t, rngs.WALK2, trial)
        x1, x2 = set(q1) - {sigma.root}, set(q2) - {sigma.root}
        x = x1 | x2
        e1 = check_separation_ref(q1, q2, m, adv.t)
        _, _, shared, e2 = block_alternation_ref(sigma, x1, x2, adv.blocks,
                                                 adv.alternation_fraction)
        lhs = project_tour_ref(sigma, m, x)
        e1_count += e1
        if e1 and e2:
            qualifying += 1
            cert = tsp_certificate(sigma, m, np.array(q1), np.array(q2), adv.t, adv.blocks)
            if not cert.holds:
                raise CertificateFalsification(
                    f"tsp certificate failed at trial {trial}: {cert.witness}")
        opt, opt_kind = _opt_ref("tsp", m, x, [q1, q2], inst.diameter, budget,
                                 cfg.oracle_cap)
        rows.append({
            "trial": trial, "n": inst.graph.n, "d": inst.d, "girth": inst.girth,
            "t": adv.t, "x_size": len(x), "good": None, "e1": e1, "e2": e2,
            "shared": shared, "lhs": lhs, "rhs": float(shared * adv.t),
            "ratio": lhs / opt if opt > 0 else float("nan"), "opt_kind": opt_kind,
        })
    return ExperimentReport(config=cfg.values, columns=LB_COLUMNS, rows=rows, aggregates={
        "qualifying_samples": qualifying, "e1_samples": e1_count})


def adjacency_ref(g: Graph) -> sp.csr_matrix:
    """The canonical scipy CSR adjacency: sorted, deduplicated rows whose
    entry is the edge multiplicity, 2 for a self-loop."""
    if g.m == 0:
        return sp.csr_matrix((g.n, g.n), dtype=np.int64)
    u, v = g.edges.T
    return sp.csr_matrix((np.ones(2 * g.m, dtype=np.int64),
                          (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(g.n, g.n))


def neighbors_ref(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the walk rows by a stable argsort of the edge
    list read from each edge's u side, then from its v side."""
    u, v = g.edges.T
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def bipartition_ref(g: Graph) -> np.ndarray | None:
    """The BFS-level parity if the sparse product counts, for every vertex,
    exactly its neighbours of the other colour, else None."""
    color = g.levels % 2
    one_nbrs = adjacency_ref(g) @ color
    return color if np.array_equal(one_nbrs, np.where(color == 0, g.degrees, 0)) else None


def walk_operator_ref(g: Graph) -> sp.csr_matrix:
    """A/d as a float64 copy of the scipy adjacency."""
    walk = adjacency_ref(g).astype(np.float64)
    walk.data /= g.regular_degree
    return walk


def unit_all_pairs_ref(g: Graph) -> np.ndarray:
    """All-pairs BFS levels by boolean sparse products, -1 when unreached."""
    n = g.n
    adj = adjacency_ref(g) > 0
    dist = np.zeros((n, n), dtype=np.int32)
    frontier = np.eye(n, dtype=bool)
    unreached = ~frontier
    while True:
        dist += unreached
        frontier = adj @ frontier
        frontier &= unreached
        if not frontier.any():
            break
        unreached ^= frontier
    dist[unreached] = -1
    return dist


def cayley_graph_ref(p: int, q: int) -> Graph:
    """The LPS closure in int64, its edges read off by a global ``np.unique``
    over the (u, v) pair keys of the neighbour table, the pairs' counts
    halved."""
    gens, first, gen_mult = np.unique(lps_generators(p, q), axis=0,
                                      return_index=True, return_counts=True)
    by_first = np.argsort(first)
    gens, gen_mult = gens[by_first], gen_mult[by_first]
    slot = np.full(2 * q ** 3, -1, dtype=np.int64)
    frontier = np.array([[1, 0, 0, 1]], dtype=np.int64)
    slot[_pack(frontier, q)] = 0
    n = 1
    nbr_levels = []
    while len(frontier):
        prod = _canon_rows(
            (frontier[:, None, [0, 0, 2, 2]] * gens[None, :, [0, 1, 0, 1]]
             + frontier[:, None, [1, 1, 3, 3]] * gens[None, :, [2, 3, 2, 3]]).reshape(-1, 4) % q,
            q)
        key = _pack(prod, q)
        unseen = np.flatnonzero(slot[key] < 0)
        _, first = np.unique(key[unseen], return_index=True)
        fresh = unseen[np.sort(first)]
        slot[key[fresh]] = np.arange(n, n + len(fresh))
        n += len(fresh)
        nbr_levels.append(slot[key])
        frontier = prod[fresh]
    expected = q * (q * q - 1) // (2 if legendre_symbol(p, q) == 1 else 1)
    if n != expected:
        raise ExpanderError(f"group closure has {n} elements, expected {expected}")
    u = np.repeat(np.arange(n), len(gens))
    v = np.concatenate(nbr_levels)
    pairs, pair_of = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    count = np.bincount(pair_of, weights=np.tile(gen_mult, n)).astype(np.int64)
    if np.any(count % 2):
        raise ExpanderError("generator set is not closed under inverses")
    return Graph(n=n, edges=np.stack(np.divmod(np.repeat(pairs, count // 2), n), axis=1))


def graph_paths_ref(p, g: Graph) -> bool:
    """Every step of every root path of ``p`` is an edge of ``g``, by
    ``np.isin`` over the min * n + max keys of the steps and of the edges."""
    steps = np.array([step for path in p.paths for step in zip(path, path[1:])],
                     dtype=np.int64).reshape(-1, 2)

    def keys(pairs: np.ndarray) -> np.ndarray:
        return pairs.min(axis=1) * g.n + pairs.max(axis=1)

    return bool(np.isin(keys(steps), keys(g.edges)).all())


def csv_text_ref(report: ExperimentReport) -> str:
    """The report's CSV written one ``_cell`` at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows([experiments._cell(row.get(k)) for k in report.columns]
                     for row in report.rows)
    return buf.getvalue()
