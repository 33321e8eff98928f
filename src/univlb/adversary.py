"""The walk adversaries' events and the exact lower-bound certificates.

The Steiner adversary is one random walk of t steps (t at most a third of
the girth in certificate mode) whose distinct vertices are the terminals;
the pipelines draw it inline. For any fixed path collection, a *good* walk
(few first-edge traversals, many distinct vertices) forces the projected
cost up via a girth argument, checked here as an exact inequality with
explicit witness data.

The TSP adversary is two independent walks; when their starts are far
apart (event E1) and both walks spread over many tour blocks (event E2),
every shared block forces one expensive leg of the projected tour.

The events have a form per walk (``is_good_walk``, ``check_separation``,
``block_alternation``) and one per block of walks, one walk per row
(``good_walks``, ``separated``, ``alternation``), which the pipelines use;
separation and alternation are one rule, the per-walk form a one-row block.

Certificates never estimate: ``holds`` is a statement about exactly computed
quantities, and a False on inputs meeting the preconditions would falsify
the argument the certificate encodes (treated as a fatal event by the
harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import MetricSpace
from .solutions import PathCollection, TourOrder, distinct_counts, project_paths, project_tour
from .walks import WalkTrace, random_walk  # noqa: F401 (perfbench's tracer test checks this binding)


class PreconditionError(ValueError):
    """Certificate invoked on inputs outside its stated preconditions."""


class CertificateFalsification(RuntimeError):
    """A certificate failed on inputs meeting its preconditions."""


@dataclass(frozen=True)
class SteinerAdversaryConfig:
    t: int
    bad_edge_fraction: float = 1.0 / 8.0
    distinct_fraction: float = 1.0 / 2.0
    certificate_mode: bool = True

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("walk length must be at least 1")
        if not (0 <= self.bad_edge_fraction <= 1 and 0 <= self.distinct_fraction <= 1):
            raise ValueError("thresholds must lie in [0, 1]")

    @property
    def bad_edge_budget(self) -> float:
        return self.bad_edge_fraction * self.t

    @property
    def distinct_required(self) -> float:
        return self.distinct_fraction * self.t


@dataclass(frozen=True)
class TspAdversaryConfig:
    t: int
    blocks: int
    alternation_fraction: float = 3.0 / 4.0

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("walk length must be at least 1")
        if self.blocks < 1:
            raise ValueError("need at least one block")

    @staticmethod
    def paper_default(n: int, d: int) -> "TspAdversaryConfig":
        log_d_n = np.log(n) / np.log(d)
        return TspAdversaryConfig(t=max(1, int(log_d_n / 4)),
                                  blocks=max(1, min(int(log_d_n), n - 1)))


@dataclass(frozen=True)
class CertificateResult:
    holds: bool
    lhs: float
    rhs: float
    witness: dict = field(default_factory=dict)


def is_good_walk(
    w: WalkTrace, F: frozenset[tuple[int, int]], cfg: SteinerAdversaryConfig
) -> tuple[bool, int, int]:
    """(good?, bad traversal count, distinct vertex count).

    Bad traversals count every walk step along an F edge (multiset
    semantics); edges compare undirected. Thresholds are closed: at most
    t/8 bad, at least t/2 distinct.
    """
    vs = w.vertices
    bad = len([1 for a, b in zip(vs, vs[1:]) if ((a, b) if a < b else (b, a)) in F])
    distinct = len(w.vertex_set)
    good = bad <= cfg.bad_edge_budget and distinct >= cfg.distinct_required
    return good, bad, distinct


def good_walks(
    walks: np.ndarray, after: np.ndarray, cfg: SteinerAdversaryConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``is_good_walk`` for each row of a (B, t+1) walk block: arrays of
    (good?, bad traversal count, distinct vertex count).

    ``after[b, s]`` is ``first_steps[walks[b, s]]`` of row b's collection,
    so the step (a, b) runs along a first edge exactly when the first step
    of one end leads to the other.
    """
    bad = ((after[:, :-1] == walks[:, 1:]) | (after[:, 1:] == walks[:, :-1])).sum(axis=1)
    distinct = distinct_counts(walks)
    good = (bad <= cfg.bad_edge_budget) & (distinct >= cfg.distinct_required)
    return good, bad, distinct


def steiner_certificate(
    p: PathCollection,
    w: WalkTrace,
    girth: int,
    cfg: SteinerAdversaryConfig,
    m: MetricSpace | None = None,
) -> CertificateResult:
    """Exact girth certificate: a good walk forces c(P[X]) >= |X| * girth / 6.

    Verification steps, all exact:

    1. X' = distinct walk vertices (root excluded) incident to no traversed
       F-edge; a good walk guarantees |X'| >= |X| / 2.
    2. The path stubs (prefixes of each p_u, u in X') are pairwise
       vertex-disjoint. Stub length is floor(girth/3) capped so that
       2*stub + t stays strictly below the girth: any intersection would
       then close a cycle shorter than the girth, so a violation genuinely
       falsifies the girth argument and is returned as holds=False with
       the offending pair.
    3. The stub edges all belong to P[X] and are disjoint, so
       c(P[X]) >= sum of stub lengths; the headline bound |X| * girth / 6
       is checked directly against c(P[X]).

    Paths must be walks in the underlying graph (the girth argument is
    about graph cycles); callers with metric-edge path collections must
    not request certificates. Unit-cost comparisons are exact integer
    arithmetic.
    """
    F = p.first_edges
    good, bad, distinct = is_good_walk(w, F, cfg)
    if not good:
        raise PreconditionError("certificate requires a good walk")
    if 3 * cfg.t > girth:
        raise PreconditionError("walk longer than girth/3")

    root = p.root
    X = w.vertex_set - {root}
    touched: set[int] = set()
    for a, b in w.edges:
        key = (a, b) if a < b else (b, a)
        if key in F:
            touched.update((a, b))
    x_prime = sorted(v for v in X if v not in touched)

    # Strictness cap: with 2*stub + t <= girth - 1 an intersection always
    # yields a cycle shorter than the girth (exactly-girth closed walks are
    # legal and do occur at the boundary).
    stub_len = max(0, min(girth // 3, (girth - 1 - cfg.t) // 2))
    stubs = {u: p.paths[u][: stub_len + 1] for u in x_prime}

    overlap: tuple[int, int] | None = None
    seen: dict[int, int] = {}
    for u in x_prime:
        for vtx in stubs[u]:
            if vtx in seen and seen[vtx] != u:
                overlap = (seen[vtx], u)
                break
            seen[vtx] = u
        if overlap:
            break

    lhs = project_paths(p, X, m)

    rhs = len(X) * girth / 6.0
    stub_sum = sum(len(stubs[u]) - 1 for u in x_prime)
    witness = {
        "x_size": len(X),
        "x_prime_size": len(x_prime),
        "bad_traversals": bad,
        "distinct": distinct,
        "stub_edge_sum": stub_sum,
        "stub_overlap": overlap,
    }
    holds = overlap is None and 6.0 * lhs >= len(X) * girth and lhs >= stub_sum
    return CertificateResult(holds=holds, lhs=lhs, rhs=rhs, witness=witness)


def check_separation(
    q1: WalkTrace, q2: WalkTrace, m: MetricSpace, t: int
) -> bool:
    """Event E1: walk starts at distance >= 3t.

    When E1 holds, the triangle inequality puts every cross pair at distance
    at least t; that implication is re-verified exhaustively and a failure
    (impossible for a true metric) raises ``CertificateFalsification``.
    """
    return bool(separated(np.array([q1.vertices]), np.array([q2.vertices]), m, t)[0])


def separated(walks1: np.ndarray, walks2: np.ndarray, m: MetricSpace, t: int) -> np.ndarray:
    """``check_separation`` for each row pair of two walk blocks: E1 per
    row, after checking every cross pair of every E1 row."""
    e1 = m.dist[walks1[:, 0], walks2[:, 0]] >= 3 * t
    w1, w2 = walks1[e1], walks2[e1]
    near = np.argwhere(m.dist[w1[:, :, None], w2[:, None, :]] < t)
    if near.size:
        b, i, j = near[0]
        raise CertificateFalsification(
            f"separation implication violated: d({w1[b, i]},{w2[b, j]}) < {t}"
        )
    return e1


def _block_of_position(i, order_len: int, blocks: int):
    """Contiguous blocks of size floor(len/blocks); remainder joins the last.
    ``i`` is one tour position or an array of them."""
    size = max(1, order_len // blocks)
    return np.minimum(i // size, blocks - 1)


def tour_blocks(positions: np.ndarray, blocks: int) -> np.ndarray:
    """The block of every vertex on every tour, -1 at the root, from the
    tours' ``solutions.tour_tables`` positions."""
    return np.where(positions >= 0,
                    _block_of_position(positions, positions.shape[1] - 1, blocks), -1)


def _blocks_hit(
    sigma: TourOrder, x1: set[int], x2: set[int], blocks: int
) -> tuple[set[int], set[int]]:
    """The blocks of the tour that hold a vertex of x1, and those of x2.

    The root is not on the tour, so it hits no block.
    """
    def hit(x: set[int]) -> set[int]:
        pos = sigma.positions[np.fromiter(x, dtype=np.int64, count=len(x))]
        return set(_block_of_position(pos[pos >= 0], len(sigma.order), blocks).tolist())

    return hit(x1), hit(x2)


def block_alternation(
    sigma: TourOrder, x1: set[int], x2: set[int], blocks: int,
    alternation_fraction: float = 3.0 / 4.0,
) -> tuple[int, int, int, bool]:
    """Block visit counts (blocks1, blocks2, shared, E2).

    E2 holds when both terminal sets touch at least 3/4 of the blocks;
    inclusion-exclusion then forces at least blocks/4 shared blocks
    (checked -- a failure would be an arithmetic impossibility and raises
    ``CertificateFalsification``).
    """
    hits = [np.array([sorted(hit)], dtype=np.int64)
            for hit in _blocks_hit(sigma, x1, x2, blocks)]
    b1, b2, shared, e2 = alternation(*hits, blocks, alternation_fraction)
    return int(b1[0]), int(b2[0]), int(shared[0]), bool(e2[0])


def alternation(
    blocks1: np.ndarray, blocks2: np.ndarray, blocks: int,
    alternation_fraction: float = 3.0 / 4.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``block_alternation`` for each row: ``blocks1[b]`` and ``blocks2[b]``
    hold the blocks that row b's two terminal classes hit, -1 for none, in
    any order and with repeats. Returns the arrays (blocks1, blocks2, shared,
    E2) of the per-walk form, one entry per row."""
    b1, b2 = distinct_counts(blocks1), distinct_counts(blocks2)
    shared = b1 + b2 - distinct_counts(np.concatenate([blocks1, blocks2], axis=1))
    e2 = (b1 >= alternation_fraction * blocks) & (b2 >= alternation_fraction * blocks)
    if alternation_fraction >= 3.0 / 4.0 and np.any(e2 & (shared < blocks / 4.0)):
        raise CertificateFalsification(
            "inclusion-exclusion violated: E2 with < blocks/4 shared")
    return b1, b2, shared, e2


def tsp_certificate(
    sigma: TourOrder,
    m: MetricSpace,
    x1: set[int],
    x2: set[int],
    t: int,
    blocks: int,
) -> CertificateResult:
    """Exact alternation certificate: c(sigma_X) >= shared_blocks * t.

    Preconditions (E1 and E2, verified by the caller) make the two terminal
    classes disjoint and t-separated. The terminals inside one block form a
    contiguous run of the projected tour; a block visited by both classes
    therefore contains a consecutive crossing pair, whose leg costs at least
    t, and legs found in different blocks are different tour legs. The
    witness lists one crossing pair per shared block.
    """
    if x1 & x2:
        raise PreconditionError("terminal classes overlap; E1 cannot have held")
    xs = np.fromiter(x1 | x2, dtype=np.int64, count=len(x1 | x2))
    pos = sigma.positions[xs]
    keep = np.argsort(pos)[np.count_nonzero(pos < 0):]  # in tour order, the root dropped
    xs, block = xs[keep].tolist(), _block_of_position(pos[keep], len(sigma.order), blocks).tolist()
    hit1, hit2 = _blocks_hit(sigma, x1, x2, blocks)
    shared = len(hit1 & hit2)
    lhs = project_tour(sigma, m, xs)

    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for a, b, ba, bb in zip(xs, xs[1:], block, block[1:]):
        if ba != bb or ba in used:
            continue
        if (a in x1 and b in x2) or (a in x2 and b in x1):
            pairs.append((a, b))
            used.add(ba)

    rhs = float(shared * t)
    holds = (
        len(pairs) >= shared
        and all(m.d(a, b) >= t for a, b in pairs)
        and lhs >= rhs
    )
    return CertificateResult(
        holds=holds, lhs=float(lhs), rhs=rhs,
        witness={"pairs": pairs, "shared": shared},
    )
