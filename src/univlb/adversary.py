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

A walk is a (t + 1,) int64 row of vertices, and each event has one kernel
over a block of walks, one walk per row (``good_walks``, ``separated``,
``alternation``), which the pipelines use. The per-walk names
(``is_good_walk``, ``check_separation``, ``block_alternation``) are one-row
calls of those kernels, kept for perfbench's tracer, which rebinds them.

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
from .walks import random_walk  # noqa: F401 (perfbench's tracer test checks this binding)


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
    w: np.ndarray, p: PathCollection, cfg: SteinerAdversaryConfig
) -> tuple[bool, int, int]:
    """(good?, bad traversal count, distinct vertex count) of the walk row
    ``w`` against the first edges of ``p``: ``good_walks`` on one row.

    Bad traversals count every walk step along a first edge (multiset
    semantics); edges compare undirected. Thresholds are closed: at most
    t/8 bad, at least t/2 distinct.
    """
    w = np.asarray(w, dtype=np.int64)[None]
    good, bad, distinct = good_walks(w, p.first_steps[w], cfg)
    return bool(good[0]), int(bad[0]), int(distinct[0])


def good_walks(
    walks: np.ndarray, after: np.ndarray, cfg: SteinerAdversaryConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The good-walk test of each row of a (B, t+1) walk block: arrays of
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
    w: np.ndarray,
    girth: int,
    cfg: SteinerAdversaryConfig,
    m: MetricSpace | None = None,
) -> CertificateResult:
    """Exact girth certificate: the good walk row ``w`` forces
    c(P[X]) >= |X| * girth / 6.

    Verification steps, all exact:

    1. X' = distinct walk vertices (root excluded) incident to no traversed
       first edge, read from ``p.first_steps``; a good walk guarantees
       |X'| >= |X| / 2.
    2. The path stubs (prefixes of each p_u, u in X', cut from the vertex
       table ``p.paths``, not from the key table the projection reads) are
       pairwise vertex-disjoint. Stub length is floor(girth/3) capped so
       that 2*stub + t stays strictly below the girth: any intersection
       would then close a cycle shorter than the girth, so a violation
       genuinely falsifies the girth argument and is returned as
       holds=False with the offending pair.
    3. The stub edges all belong to P[X] and are disjoint, so
       c(P[X]) >= sum of stub lengths, which cross-checks the projection;
       the headline bound |X| * girth / 6 is checked directly against
       c(P[X]).

    Paths must be walks in the underlying graph (the girth argument is
    about graph cycles); callers with metric-edge path collections must
    not request certificates. Unit-cost comparisons are exact integer
    arithmetic.
    """
    w = np.asarray(w, dtype=np.int64)
    good, bad, distinct = is_good_walk(w, p, cfg)
    if not good:
        raise PreconditionError("certificate requires a good walk")
    if 3 * cfg.t > girth:
        raise PreconditionError("walk longer than girth/3")

    after = p.first_steps[w]
    on_first = (after[:-1] == w[1:]) | (after[1:] == w[:-1])
    X = set(w.tolist()) - {p.root}
    touched = set(w[:-1][on_first].tolist()) | set(w[1:][on_first].tolist())
    x_prime = sorted(X - touched)

    # Strictness cap: with 2*stub + t <= girth - 1 an intersection always
    # yields a cycle shorter than the girth (exactly-girth closed walks are
    # legal and do occur at the boundary).
    stub_len = max(0, min(girth // 3, (girth - 1 - cfg.t) // 2))
    stubs = p.paths[x_prime, : stub_len + 1]  # -1 past a path's end

    overlap: tuple[int, int] | None = None
    seen: dict[int, int] = {}
    for u, stub in zip(x_prime, stubs.tolist()):
        for vtx in stub:
            if vtx < 0:
                break
            if vtx in seen and seen[vtx] != u:
                overlap = (seen[vtx], u)
                break
            seen[vtx] = u
        if overlap:
            break

    lhs = project_paths(p, w, m)

    rhs = len(X) * girth / 6.0
    stub_sum = int(np.count_nonzero(stubs >= 0)) - len(x_prime)  # each stub's vertices - 1
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


def check_separation(q1: np.ndarray, q2: np.ndarray, m: MetricSpace, t: int) -> bool:
    """Event E1 for two walk rows: their starts lie at distance >= 3t.

    When E1 holds, the triangle inequality puts every cross pair at distance
    at least t; that implication is re-verified exhaustively and a failure
    (impossible for a true metric) raises ``CertificateFalsification``.
    ``separated`` on one row pair.
    """
    return bool(separated(np.asarray(q1)[None], np.asarray(q2)[None], m, t)[0])


def separated(walks1: np.ndarray, walks2: np.ndarray, m: MetricSpace, t: int) -> np.ndarray:
    """E1 for each row pair of two walk blocks, after checking every cross
    pair of every E1 row."""
    e1 = m.dist[walks1[:, 0], walks2[:, 0]] >= 3 * t
    w1, w2 = walks1[e1], walks2[e1]
    near = np.argwhere(m.dist[w1[:, :, None], w2[:, None, :]] < t)
    if near.size:
        b, i, j = near[0]
        raise CertificateFalsification(
            f"separation implication violated: d({w1[b, i]},{w2[b, j]}) < {t}"
        )
    return e1


def tour_blocks(positions: np.ndarray, blocks: int) -> np.ndarray:
    """The block of every vertex on every tour, -1 at the root, from the
    tours' ``solutions.tour_tables`` positions: contiguous blocks of
    floor(len/blocks) tour positions, the remainder joining the last."""
    size = max(1, (positions.shape[1] - 1) // blocks)
    return np.where(positions >= 0, np.minimum(positions // size, blocks - 1), -1)


def block_alternation(
    sigma: TourOrder, q1: np.ndarray, q2: np.ndarray, blocks: int,
    alternation_fraction: float = 3.0 / 4.0,
) -> tuple[int, int, int, bool]:
    """Block visit counts (blocks1, blocks2, shared, E2) of the vertex rows
    ``q1`` and ``q2`` on ``sigma``: ``alternation`` on one row.

    E2 holds when both terminal sets touch at least 3/4 of the blocks;
    inclusion-exclusion then forces at least blocks/4 shared blocks
    (checked -- a failure would be an arithmetic impossibility and raises
    ``CertificateFalsification``). The root is not on the tour, so it hits
    no block.
    """
    block_of = tour_blocks(sigma.positions[None], blocks)[0]
    b1, b2, shared, e2 = alternation(
        *(block_of[np.asarray(q, dtype=np.int64)][None] for q in (q1, q2)),
        blocks, alternation_fraction)
    return int(b1[0]), int(b2[0]), int(shared[0]), bool(e2[0])


def alternation(
    blocks1: np.ndarray, blocks2: np.ndarray, blocks: int,
    alternation_fraction: float = 3.0 / 4.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block alternation for each row: ``blocks1[b]`` and ``blocks2[b]``
    hold the blocks that row b's two terminal classes hit, -1 for none, in
    any order and with repeats. Returns the arrays (blocks1, blocks2, shared,
    E2), one entry per row."""
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
    q1: np.ndarray,
    q2: np.ndarray,
    t: int,
    blocks: int,
) -> CertificateResult:
    """Exact alternation certificate: c(sigma_X) >= shared_blocks * t, for
    the terminal classes X1 and X2 of the walk rows ``q1`` and ``q2`` (their
    vertices less the root).

    Preconditions (E1 and E2, verified by the caller) make the two terminal
    classes disjoint and t-separated. The terminals inside one block form a
    contiguous run of the projected tour; a block visited by both classes
    therefore contains a consecutive crossing pair, whose leg costs at least
    t, and legs found in different blocks are different tour legs. The
    witness lists one crossing pair per shared block, so the bound follows
    from the pairs alone.
    """
    x1, x2 = ({int(v) for v in q} - {sigma.root} for q in (q1, q2))
    if x1 & x2:
        raise PreconditionError("terminal classes overlap; E1 cannot have held")
    xs = sorted(x1 | x2, key=sigma.positions.__getitem__)
    block_of = tour_blocks(sigma.positions[None], blocks)[0]
    block = block_of[xs].tolist()
    shared = len({block_of[v] for v in x1} & {block_of[v] for v in x2})
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
