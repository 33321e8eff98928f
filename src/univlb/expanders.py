"""Expander construction and spectral certification.

The one construction is ``lps_graph(p, q)``: the Lubotzky-Phillips-Sarnak
Ramanujan Cayley graphs on PSL(2,q) / PGL(2,q), giving (p+1)-regular graphs
whose normalized second eigenvalue is at most 2*sqrt(p)/(p+1) and whose girth
grows logarithmically. Group elements are 2x2 matrices mod q in projective
canonical form (first nonzero entry 1), held as rows (a, b, c, d) of int32
arrays. The group is closed by a breadth-first search from the identity that
multiplies its queue by every generator, ``CLOSURE_CHUNK`` products per
array pass, finds repeats through a table indexed by the packed canonical
matrix, and fills the (n, p+1) neighbour table in place. Sorted row by row,
that table is the graph's CSR as it stands, and the edges are read off it.

The build of lps(41, 29) (n = 24,360, d = 42) leaves about 24 MiB live:
edges, CSR and walk rows, 8.2 MB each. No stage holds more than half as
much again (its traced peak is about 1.3 times that). The closure holds the
table and O(n) besides; beta holds the graph, the walk operator's (d, n)
index table and O(n) vectors; the other stages are listed in ``graphs``.

Certification encloses beta = |lambda_2| / d by the trace method on the walk
operator A/d, filtered by a Chebyshev polynomial (``second_eigenvalue``), and
gates the enclosure's upper end, the certificate's ``beta``, on the Ramanujan
bound 2*sqrt(p)/(p+1).

The closure keeps each element's packed canonical matrix, in vertex order
(2 or 4 bytes a vertex), and they give the graph's exact metric in O(n)
memory (``lps_metric``). Edges are right multiplications, so left
multiplication by u^-1 is an automorphism and d(u, v) = d(e, u^-1 v): the
level, in the BFS from the identity, of the element u^-1 v, found by one
2x2 product mod q and a lookup of its packed canonical form. No n x n table
is built.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .graphs import Graph, bipartition, diameter_ecc, girth, is_connected
from .walks import walk_operator


class ExpanderError(ValueError):
    pass


@dataclass(frozen=True)
class ExpanderCertificate:
    n: int
    d: int
    beta: float  # certified upper end of the enclosure; the gate reads it
    beta_lo: float
    girth: int | None
    diameter: int
    construction: str  # always "lps"; kept as a key of the .cert.json format
    ramanujan_bound: float | None = None
    bipartite: bool = False
    simple: bool = True


def write_certificate(cert: ExpanderCertificate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(cert), indent=2, sort_keys=True) + "\n")


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def legendre_symbol(a: int, p: int) -> int:
    """1 if a is a nonzero quadratic residue mod p, -1 if non-residue, 0 if p | a."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a: int, q: int) -> int:
    """Smallest x with x^2 = a (mod q); brute force is fine at desk-scale q."""
    a %= q
    for x in range(q):
        if x * x % q == a:
            return x
    raise ExpanderError(f"{a} is not a square mod {q}")


def _quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even."""
    limit = int(math.isqrt(p))
    odds = [a for a in range(1, limit + 1) if a % 2 == 1]
    evens = [e for e in range(-limit, limit + 1) if e % 2 == 0]
    sols = []
    for a, b, c, d in itertools.product(odds, evens, evens, evens):
        if a * a + b * b + c * c + d * d == p:
            sols.append((a, b, c, d))
    return sols


def _canon_rows(mats: np.ndarray, q: int) -> np.ndarray:
    """Projective canonical form of each row (a, b, c, d) of ``mats``, entries
    in [0, q): scale so the first nonzero entry is 1."""
    lead = mats[np.arange(len(mats)), np.argmax(mats != 0, axis=1)]
    if not lead.all():
        raise ExpanderError("zero matrix cannot be normalized")
    return mats * _inverses(q)[lead, None] % q


@functools.cache
def _inverses(q: int) -> np.ndarray:
    """Read-only int32 table of the inverses mod the prime q (0 at 0)."""
    inverse = np.array([pow(x, q - 2, q) for x in range(q)], dtype=np.int32)
    inverse.setflags(write=False)
    return inverse


def lps_generators(p: int, q: int) -> np.ndarray:
    """The p+1 canonical generator matrices of the LPS Cayley graph, one
    (a, b, c, d) row each."""
    i = sqrt_mod(q - 1, q)
    a, b, c, d = np.array(_quaternion_solutions(p), dtype=np.int64).reshape(-1, 4).T
    mats = np.stack([a + i * b, c + i * d, -c + i * d, a - i * b], axis=1) % q
    if np.any((mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % q != p % q):
        raise ExpanderError("generator determinant mismatch")
    if len(mats) != p + 1:
        raise ExpanderError(f"expected {p + 1} quaternion solutions, found {len(mats)}")
    return _canon_rows(mats, q)


@functools.cache
def lps_graph(p: int, q: int) -> tuple[Graph, ExpanderCertificate]:
    """Construct the LPS Ramanujan graph X(p, q) with its certificate.

    Construction is deterministic, so results are memoized per (p, q);
    the returned objects are immutable and safe to share.

    Requires distinct primes p, q = 1 (mod 4). Vertices are the elements of
    PSL(2,q) when p is a quadratic residue mod q, and of PGL(2,q) (bipartite
    graph) otherwise; edges come from right-multiplication by the p+1
    generators. The graph is simple whenever q > 2*sqrt(p); smaller q gets
    its multi-edges kept and flagged in the certificate.

    Vertex numbering, which every pinned CSV depends on: vertex 0 is the
    identity, and the others are numbered in breadth-first discovery order,
    where each vertex u in turn (by index) multiplies by the distinct
    generators in their first-occurrence order in ``lps_generators`` and
    every product not seen before gets the next index. Edges are sorted
    pairs (u <= v) in ascending order, repeated by multiplicity.

    Girth and diameter are computed from a single root, which is exact here
    because Cayley graphs are vertex-transitive. The elements' packed
    matrices are kept with the graph for ``lps_metric``.
    """
    if p == q:
        raise ExpanderError("p and q must be distinct")
    for name, val in (("p", p), ("q", q)):
        if not is_prime(val):
            raise ExpanderError(f"{name}={val} is not prime")
        if val % 4 != 1:
            raise ExpanderError(f"{name}={val} must be congruent to 1 mod 4")

    g, keys = _cayley_graph(p, q)
    if g.regular_degree != p + 1:
        raise ExpanderError(f"graph is not {p + 1}-regular")
    if not is_connected(g):
        raise ExpanderError("Cayley graph is not connected")

    beta_lo, beta_hi = second_eigenvalue(g)
    cert = ExpanderCertificate(
        n=g.n,
        d=p + 1,
        beta=beta_hi,
        beta_lo=beta_lo,
        girth=girth(g, roots=(0,)),
        diameter=diameter_ecc(g),
        construction="lps",
        ramanujan_bound=2.0 * math.sqrt(p) / (p + 1),
        bipartite=bipartition(g) is not None,
        simple=g.simple,
    )
    _ELEMENTS[g] = keys
    return g, cert


#: The group elements of each graph ``lps_graph`` built, as ``_pack``
#: indices in vertex order; an entry lives as long as its graph.
_ELEMENTS: weakref.WeakKeyDictionary[Graph, np.ndarray] = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class CayleyMetric:
    """The exact shortest-path metric of an LPS graph, read without an n x n
    table: d(u, v) = levels[index(u^-1 v)] (see the module docstring).

    ``adjugates`` holds each element's adjugate (d, -b, -c, a) mod q, its
    inverse up to a scalar, so a read multiplies adj(u) by v, puts the
    product in canonical form and looks its packed form up in ``slot``,
    which maps every packed canonical element to its vertex. Distances are
    int32, as in the dense table of ``metric.shortest_path_metric``."""

    n: int
    root: int
    q: int
    mats: np.ndarray       # (n, 2, 2) int32, vertex u's canonical matrix
    adjugates: np.ndarray  # (n, 2, 2) int32, adj(mats[u]) mod q
    slot: np.ndarray       # (2 q^3,) int32, packed canonical matrix -> vertex, -1 elsewhere
    levels: np.ndarray     # (n,) int32, each vertex's distance from the identity

    def gather(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """d(u, v) for the broadcast index arrays ``u`` and ``v``."""
        prod = np.matmul(self.adjugates[u], self.mats[v])
        shape = prod.shape[:-2]  # matmul broadcasts u against v
        prod = prod.reshape(-1, 4)
        prod %= self.q
        return self.levels[self.slot[_pack(_canon_rows(prod, self.q), self.q)]].reshape(shape)

    def d(self, u: int, v: int) -> float:
        return float(self.gather(np.int64(u), np.int64(v)))


def lps_metric(p: int, q: int) -> CayleyMetric:
    """The exact metric of ``lps_graph(p, q)``, rooted at the identity
    (vertex 0). It holds ``slot`` (2 q^3 int32) and O(n) besides."""
    g, _ = lps_graph(p, q)
    keys = _ELEMENTS[g]
    mats = _unpack(keys, q)
    a, b, c, d = mats.T
    adjugates = np.stack([d, -b % q, -c % q, a], axis=1)
    slot = np.full(2 * q ** 3, -1, dtype=np.int32)
    slot[keys] = np.arange(g.n, dtype=np.int32)
    return CayleyMetric(n=g.n, root=0, q=q, mats=mats.reshape(-1, 2, 2),
                        adjugates=adjugates.reshape(-1, 2, 2), slot=slot,
                        levels=g.levels.astype(np.int32))


CLOSURE_CHUNK = 1 << 16  # products per pass of the closure, in whole elements (one at least)


def _cayley_graph(p: int, q: int) -> tuple[Graph, np.ndarray]:
    """The Cayley graph of ``lps_generators(p, q)`` numbered as ``lps_graph``
    states, checked for the group's size and for closure under inverses,
    and its elements' ``_pack`` indices in vertex order: read-only, in the
    smallest unsigned dtype that holds 2 q^3 (uint16 up to q = 32).

    A function of its own so that the closure's arrays are freed before
    ``lps_graph`` runs beta and girth. At its peak it holds the (n, k) int64
    table of products (k distinct generators) and O(n) besides: ``slot``,
    the elements' int32 matrices and one pass's ``CLOSURE_CHUNK`` products.
    The table is then sorted in place and handed to ``from_neighbor_rows``
    as the graph's CSR, without a copy; ``np.repeat`` copies it only when a
    generator repeats."""
    gens, first, gen_mult = np.unique(lps_generators(p, q), axis=0,
                                      return_index=True, return_counts=True)
    by_first = np.argsort(first)
    # int32 products: entries are below q, so intermediates stay under
    # 2 (q-1)^2 < 2^31 for any q whose ``slot`` table fits in memory.
    gens, gen_mult = gens[by_first].astype(np.int32), gen_mult[by_first]
    k = len(gens)
    expected = q * (q * q - 1) // (2 if legendre_symbol(p, q) == 1 else 1)

    # A queue of elements, multiplied by the generators in (element x
    # generator) order, ``step`` elements at a time: every product not seen
    # before gets the next index, which is the numbering of a one-element-
    # at-a-time BFS. A canonical matrix leads with 0 or 1, so it packs into
    # an index below 2*q^3 of ``slot`` (its element index, or -1).
    slot = np.full(2 * q ** 3, -1, dtype=np.int64)
    mats = np.empty((expected, 4), dtype=np.int32)  # element u's matrix
    table = np.empty((expected, k), dtype=np.int64)  # row u lists u * gens[j]
    mats[0] = (1, 0, 0, 1)
    slot[_pack(mats[:1], q)] = 0
    step = max(1, CLOSURE_CHUNK // k)
    n, done = 1, 0
    while done < n:
        queue = mats[done:min(done + step, n)]
        prod = _canon_rows(
            (queue[:, None, [0, 0, 2, 2]] * gens[None, :, [0, 1, 0, 1]]
             + queue[:, None, [1, 1, 3, 3]] * gens[None, :, [2, 3, 2, 3]]).reshape(-1, 4) % q,
            q)
        key = _pack(prod, q)
        unseen = np.flatnonzero(slot[key] < 0)
        # each new key's first position, parked in ``slot`` until numbered
        slot[key[unseen]] = len(key)
        np.minimum.at(slot, key[unseen], unseen)
        fresh = unseen[slot[key[unseen]] == unseen]
        if n + len(fresh) > expected:
            raise ExpanderError(f"group closure has over {expected} elements, "
                                f"expected {expected}")
        slot[key[fresh]] = np.arange(n, n + len(fresh))
        mats[n:n + len(fresh)] = prod[fresh]
        n += len(fresh)
        table[done:done + len(queue)] = slot[key].reshape(-1, k)
        done += len(queue)
    keys = _pack(mats, q).astype(np.min_scalar_type(2 * q ** 3 - 1))
    keys.setflags(write=False)
    del slot, mats, queue
    if n != expected:
        raise ExpanderError(f"group closure has {n} elements, expected {expected}")

    # Row u lists u * gens[j]; repeated by multiplicity and sorted, it is u's
    # neighbour row. Left multiplication is an automorphism, so the rows are
    # symmetric once vertex 0's are, and list self-loops in pairs once row 0
    # lists vertex 0 an even number of times.
    if np.any(gen_mult > 1):
        table = np.repeat(table, gen_mult, axis=1)
    table.sort(axis=1)
    lists_identity = (table == 0).sum(axis=1)
    if (not np.array_equal(np.bincount(table[0], minlength=n), lists_identity)
            or lists_identity[0] % 2):
        raise ExpanderError("generator set is not closed under inverses")
    return Graph.from_neighbor_rows(table), keys


def _pack(mats: np.ndarray, q: int) -> np.ndarray:
    """Index of each canonical row (a, b, c, d) in [0, 2*q^3)."""
    return ((mats[:, 0].astype(np.int64) * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]


def _unpack(keys: np.ndarray, q: int) -> np.ndarray:
    """The (n, 4) int32 canonical rows of ``_pack`` indices."""
    rest = keys.astype(np.int64)
    mats = np.empty((len(keys), 4), dtype=np.int32)
    for j in (3, 2, 1, 0):
        rest, mats[:, j] = np.divmod(rest, q)
    return mats


BETA_MAX_STEPS = 1000  # walk-operator products; lps(5,61), the slowest acceptance graph, needs 89
BETA_WARMUP_STEPS = 25  # power steps before the Chebyshev filter; they give its scale a
BETA_MARGIN = 1e-9  # relative widening of both ends, over the rounding error


def second_eigenvalue(g: Graph) -> tuple[float, float]:
    """Certified enclosure (beta_lo, beta_hi) of beta, the largest magnitude
    of a non-trivial eigenvalue of A/d, for a connected, d-regular and
    vertex-transitive ``g`` (a Cayley graph, as every LPS graph is).

    Trace method, filtered by a Chebyshev polynomial. Let M = P A/d, where P
    projects off the all-ones vector and, if the graph is bipartite, the +/-1
    vector, so that ||M|| = beta. Vertex transitivity makes every diagonal
    entry of P f(M) P equal, so n ||f(M) P e_0||^2 sums f(mu)^2 over the
    non-trivial eigenvalues mu of A/d.

    Warm-up: ``BETA_WARMUP_STEPS`` power steps y_k = M^k e_0, with
    beta_hi = (n ||y_k||^2)^{1/2k} and beta_lo = ||y_k|| / ||y_{k-1}|| <= beta.
    Their last beta_lo is the filter's scale a <= beta. Filter: w_0 = P e_0,
    w_1 = (M/a) w_0 and w_{j+1} = 2 (M/a) w_j - w_{j-1}, so w_k = T_k(M/a) w_0
    for the Chebyshev polynomial T_k, and S = n ||w_k||^2 sums T_k(mu/a)^2.
    If beta > a then T_k(beta/a)^2 <= S, as |T_k| grows on [1, inf); so
    beta <= beta_hi = a cosh(arccosh(max(1, sqrt S)) / k) either way. The
    product M w_j that the step takes gives beta_lo = ||M w_j|| / ||w_j||
    <= beta, the largest of which is kept. Either phase stops once beta_hi
    is under the Ramanujan bound 2 sqrt(d-1)/d and within 1% of beta_lo, and
    raises ``ExpanderError`` if beta_lo is over the bound or after
    ``BETA_MAX_STEPS`` products in all.

    Floating point: w is rescaled each step and the log of sqrt(n) ||w_k||
    kept, so S never overflows. A product with its projection has relative
    error eta <= (d + 2 log2 n + 6) u, u = 2^-53. Write x = beta/a = cosh(theta).
    Power ratios never fall, so a >= beta n^{-1/2W} after the W = 25 warm-up
    steps: x <= 1.266 and theta <= 0.714 for n <= 2^17. For the exact w_j,
    ||w_j|| <= T_j(x), and ||w_k|| >= T_k(x) / sqrt(n) as e_0 puts weight
    1/n or more on beta's eigenspace. Step j adds an error of at most
    3 x eta T_j(x), which reaches w_k through U_{k-j}(M/a), U the Chebyshev
    polynomial of the second kind, of norm U_{k-j}(x) <= min(k-j+1, C)
    T_{k-j}(x) with C = e^theta / sinh(theta); and T_j T_{k-j} <= T_k. So
    sqrt S is off by a relative 3 x eta sqrt(n) k min(k, C) at most, and
    beta_hi by that times phi coth(phi) / k^2 <= (1 + phi) / k^2, where
    phi = arccosh(sqrt S) <= ln(2 sqrt n) + k theta. As C theta <= 1 + 2 theta,
    beta_hi is off by a relative 3 x eta sqrt(n) (2 + 2 theta + ln(2 sqrt n))
    at most, whatever k: under 2e-10 for n <= 2^17 and d <= 62, and inside
    ``BETA_MARGIN``. beta_lo is off by 2 eta at most. Sums are numpy's
    pairwise ones, not BLAS dot/norm, whose order depends on the BLAS thread
    count, so the enclosure repeats bit for bit.
    """
    d = g.regular_degree
    if d is None:
        raise ExpanderError("second_eigenvalue requires a regular graph")
    if not is_connected(g):
        raise ExpanderError("graph must be connected")
    n = g.n
    trivial = [np.full(n, 1.0 / math.sqrt(n))]
    color = bipartition(g)
    if color is not None:
        trivial.append(np.where(color == 0, 1.0, -1.0) / math.sqrt(n))
    if n <= len(trivial):  # K1, K2: no non-trivial eigenvalue
        return 0.0, 0.0

    bound = 2.0 * math.sqrt(d - 1) / d

    def norm(x: np.ndarray) -> float:
        return math.sqrt((x * x).sum())

    def project(x: np.ndarray) -> np.ndarray:
        for v in trivial:
            x = x - (x * v).sum() * v
        return x

    def certified(lo: float, hi: float, k: int) -> bool:
        if lo > bound:
            raise ExpanderError(f"beta in [{lo!r}, {hi!r}] exceeds the Ramanujan bound "
                                f"{bound!r} after {k} steps")
        return hi <= bound and hi <= 1.01 * lo

    walk = walk_operator(g)
    w0 = project(np.eye(1, n).ravel())
    size = norm(w0)
    w0 /= size
    log_sqrt_n_w0 = 0.5 * math.log(n) + math.log(size)  # log(sqrt(n) ||P e_0||)

    y, log_sqrt_n_norm = w0, log_sqrt_n_w0  # log(sqrt(n) ||y_k||)
    for k in range(1, BETA_WARMUP_STEPS + 1):
        y = project(walk(y))
        ratio = norm(y)
        if ratio < BETA_MARGIN:
            # K_{d,d}: ratios never fall, so k = 1 and beta <= sqrt(n) ||y_1|| ~ 0
            return 0.0, 2.0 * math.sqrt(n) * BETA_MARGIN
        y /= ratio
        log_sqrt_n_norm += math.log(ratio)
        lo = ratio * (1.0 - BETA_MARGIN)
        hi = math.exp(log_sqrt_n_norm / k) * (1.0 + BETA_MARGIN)
        if certified(lo, hi, k):
            return lo, hi

    a = lo
    prev, w, log_sqrt_n_norm = np.zeros(n), w0, log_sqrt_n_w0  # log(sqrt(n) ||w_j||)
    for k in range(1, BETA_MAX_STEPS - BETA_WARMUP_STEPS + 1):
        mw = project(walk(w))
        lo = max(lo, norm(mw) * (1.0 - BETA_MARGIN))
        mw *= (2.0 if k > 1 else 1.0) / a
        mw -= prev
        size = norm(mw)
        prev, w = w / size, mw / size
        log_sqrt_n_norm += math.log(size)
        # arccosh(e^L) = L + log(1 + sqrt(1 - e^{-2L})), L = log max(1, sqrt S)
        log_sqrt_s = max(log_sqrt_n_norm, 0.0)
        phi = log_sqrt_s + math.log1p(math.sqrt(-math.expm1(-2.0 * log_sqrt_s)))
        hi = a * math.cosh(phi / k) * (1.0 + BETA_MARGIN)
        if certified(lo, hi, BETA_WARMUP_STEPS + k):
            return lo, hi
    raise ExpanderError(f"beta in [{lo!r}, {hi!r}] not certified below the Ramanujan "
                        f"bound {bound!r} within {BETA_MAX_STEPS} steps")
