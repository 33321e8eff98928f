"""Loop references for the per-trial kernels, used only by the tests.

These are the straightforward Python forms the package's array kernels
replaced: the path projection as a set of edge tuples, the good-walk test as
a loop over the walk's steps, the walk as one neighbour lookup per step,
separation and block alternation over Python sets, the exact oracles'
Dreyfus-Wagner and Held-Karp tables filled one split or one predecessor at a
time, and the steiner-lb and tsp-lb trial loops, one trial at a time. The
walk draws the same random numbers as ``univlb.walks.random_walk``, and the
oracles and tour legs do the same float additions as the package, so parity
tests compare exactly.
"""

from __future__ import annotations

import numpy as np

from univlb import experiments, rng as rngs
from univlb.adversary import (
    CertificateFalsification,
    SteinerAdversaryConfig,
    TspAdversaryConfig,
    is_good_walk,
    steiner_certificate,
    tsp_certificate,
)
from univlb.experiments import LB_COLUMNS, ConfigError, ExperimentReport
from univlb.oracles import OracleRefusal, opt_surrogates, steiner_exact, tsp_exact
from univlb.solutions import project_tour
from univlb.walks import WalkTrace


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


def check_separation_ref(q1, q2, m, t) -> bool:
    """E1 with the cross-pair implication checked over the walks' vertex sets."""
    if m.d(q1.start, q2.start) < 3 * t:
        return False
    for u in q1.vertex_set:
        for v in q2.vertex_set:
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


def _walk_ref(cfg, g, t, tag, trial) -> WalkTrace:
    return WalkTrace(vertices=random_walk_ref(g, t, rngs.stream(cfg.seed, tag, trial)))


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
    bounds = opt_surrogates([w.steps for w in walks], diam)
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
    certifiable = [adv.certificate_mode and experiments._graph_paths(p, inst.graph)
                   for p in solutions]
    budget = experiments._budget(cfg.oracle_cap)
    rows, good_count, certified = [], 0, 0
    for trial in range(cfg.trials):
        pick = _pick_ref(cfg, len(solutions), trial)
        paths = solutions[pick]
        walk = _walk_ref(cfg, inst.graph, adv.t, rngs.WALK, trial)
        x = walk.vertex_set - {paths.root}
        good, _, _ = is_good_walk(walk, paths.first_edges, adv)
        good_count += good
        lhs = project_paths_ref(paths, x, inst.metric)
        if good and certifiable[pick]:
            cert = steiner_certificate(paths, walk, inst.girth, adv, inst.metric)
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
        x1, x2 = q1.vertex_set - {sigma.root}, q2.vertex_set - {sigma.root}
        x = x1 | x2
        e1 = check_separation_ref(q1, q2, m, adv.t)
        _, _, shared, e2 = block_alternation_ref(sigma, x1, x2, adv.blocks,
                                                 adv.alternation_fraction)
        lhs = project_tour(sigma, m, x)
        e1_count += e1
        if e1 and e2:
            qualifying += 1
            cert = tsp_certificate(sigma, m, x1, x2, adv.t, adv.blocks)
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
