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

Certificates never estimate: ``holds`` is a statement about exactly computed
quantities, and a False on inputs meeting the preconditions would falsify
the argument the certificate encodes (treated as a fatal event by the
harness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metric import MetricSpace
from .solutions import PathCollection, TourOrder, project_paths, project_tour
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
    sep = m.d(q1.start, q2.start)
    if sep < 3 * t:
        return False
    for u in q1.vertex_set:
        for v in q2.vertex_set:
            if m.d(u, v) < t:
                raise CertificateFalsification(
                    f"separation implication violated: d({u},{v}) < {t}"
                )
    return True


def _block_of_position(i: int, order_len: int, blocks: int) -> int:
    """Contiguous blocks of size floor(len/blocks); remainder joins the last."""
    size = max(1, order_len // blocks)
    return min(i // size, blocks - 1)


def _blocks_hit(
    sigma: TourOrder, x1: set[int], x2: set[int], blocks: int
) -> tuple[set[int], set[int]]:
    """The blocks of the tour that hold a vertex of x1, and those of x2.

    The root is not on the tour, so it hits no block.
    """
    pos, size = sigma.positions, len(sigma.order)

    def hit(x: set[int]) -> set[int]:
        return {_block_of_position(pos[v], size, blocks) for v in x if v != sigma.root}

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
    hit1, hit2 = _blocks_hit(sigma, x1, x2, blocks)
    b1, b2 = len(hit1), len(hit2)
    shared = len(hit1 & hit2)
    e2 = b1 >= alternation_fraction * blocks and b2 >= alternation_fraction * blocks
    if e2 and alternation_fraction >= 3.0 / 4.0 and shared < blocks / 4.0:
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
    pos = sigma.positions
    xs = sorted((v for v in (x1 | x2) if v != sigma.root), key=pos.__getitem__)
    hit1, hit2 = _blocks_hit(sigma, x1, x2, blocks)
    shared = len(hit1 & hit2)
    lhs = project_tour(sigma, m, xs)

    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    for a, b in zip(xs, xs[1:]):
        ba = _block_of_position(pos[a], len(sigma.order), blocks)
        bb = _block_of_position(pos[b], len(sigma.order), blocks)
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
