"""Expander construction and spectral certification.

The one construction is ``lps_graph(p, q)``: the Lubotzky-Phillips-Sarnak
Ramanujan Cayley graphs on PSL(2,q) / PGL(2,q), giving (p+1)-regular graphs
whose normalized second eigenvalue is at most 2*sqrt(p)/(p+1) and whose girth
grows logarithmically. Group elements are 2x2 matrices mod q in projective
canonical form (first nonzero entry 1), held as rows (a, b, c, d) of int64
arrays. The group is closed by a breadth-first search from the identity that
multiplies a whole level by every generator in one array pass, finds repeats
through a table indexed by the packed canonical matrix, and yields the
(n, p+1) neighbour table the edges are read from.

Certification measures the second-largest normalized adjacency eigenvalue by
power iteration with deflation of the trivial eigenvector(s); the raw
eigenvalue is never exposed, only ``beta = |lambda_2| / d``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .graphs import Graph, bipartition, diameter_ecc, girth, is_connected


class ExpanderError(ValueError):
    pass


@dataclass(frozen=True)
class ExpanderCertificate:
    n: int
    d: int
    beta: float
    girth: int | None
    diameter: int
    construction: str  # always "lps"; kept as a key of the .cert.json format
    ramanujan_bound: float | None = None
    bipartite: bool = False
    simple: bool = True

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExpanderCertificate":
        return ExpanderCertificate(**json.loads(text))


def write_certificate(cert: ExpanderCertificate, path: str | Path) -> None:
    Path(path).write_text(cert.to_json() + "\n")


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
    inverse = np.array([pow(x, q - 2, q) for x in range(q)], dtype=np.int64)
    return mats * inverse[lead, None] % q


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
def lps_graph(p: int, q: int, beta_tol: float = 1e-7) -> tuple[Graph, ExpanderCertificate]:
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
    because Cayley graphs are vertex-transitive.
    """
    if p == q:
        raise ExpanderError("p and q must be distinct")
    for name, val in (("p", p), ("q", q)):
        if not is_prime(val):
            raise ExpanderError(f"{name}={val} is not prime")
        if val % 4 != 1:
            raise ExpanderError(f"{name}={val} must be congruent to 1 mod 4")

    g = _cayley_graph(p, q)
    if g.regular_degree != p + 1:
        raise ExpanderError(f"graph is not {p + 1}-regular")
    if not is_connected(g):
        raise ExpanderError("Cayley graph is not connected")

    beta = second_eigenvalue(g, tol=beta_tol)
    bound = 2.0 * math.sqrt(p) / (p + 1)
    cert = ExpanderCertificate(
        n=g.n,
        d=p + 1,
        beta=beta,
        girth=girth(g, roots=(0,)),
        diameter=diameter_ecc(g),
        construction="lps",
        ramanujan_bound=bound,
        bipartite=bipartition(g) is not None,
        simple=g.simple,
    )
    return g, cert


def _cayley_graph(p: int, q: int) -> Graph:
    """The Cayley graph of ``lps_generators(p, q)`` numbered as ``lps_graph``
    states, checked for the group's size and for closure under inverses.

    A function of its own so that the closure's arrays are freed before
    ``lps_graph`` runs beta and girth, which sets the build's peak memory."""
    gens, first, gen_mult = np.unique(lps_generators(p, q), axis=0,
                                      return_index=True, return_counts=True)
    by_first = np.argsort(first)
    gens, gen_mult = gens[by_first], gen_mult[by_first]
    k = len(gens)

    # Level-synchronous closure. A canonical matrix leads with 0 or 1, so it
    # packs into an index below 2*q^3 of ``slot`` (its element index, or -1).
    # Numbering new products by first occurrence in (frontier x generator)
    # order reproduces the queue order of a one-element-at-a-time BFS.
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

    residue = legendre_symbol(p, q)
    expected = q * (q * q - 1) // 2 if residue == 1 else q * (q * q - 1)
    if n != expected:
        raise ExpanderError(f"group closure has {n} elements, expected {expected}")

    # v is the (n, k) neighbour table flattened: v[u*k + j] is u * gens[j].
    # Each undirected edge is produced twice (once from either endpoint via
    # the inverse generator), so halve the multiplicities.
    u = np.repeat(np.arange(n), k)
    v = np.concatenate(nbr_levels)
    pairs, pair_of = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_inverse=True)
    count = np.bincount(pair_of, weights=np.tile(gen_mult, n)).astype(np.int64)
    if np.any(count % 2):
        raise ExpanderError("generator set is not closed under inverses")
    return Graph(n=n, edges=np.stack(np.divmod(np.repeat(pairs, count // 2), n), axis=1))


def _pack(mats: np.ndarray, q: int) -> np.ndarray:
    """Index of each canonical row (a, b, c, d) in [0, 2*q^3)."""
    return ((mats[:, 0] * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]


def second_eigenvalue(g: Graph, tol: float = 1e-9, max_iter: int = 20000, seed: int = 7) -> float:
    """Normalized second adjacency eigenvalue magnitude |lambda_2| / d.

    Power iteration on the adjacency operator after deflating the all-ones
    eigenvector (and, for bipartite graphs, the alternating +/-1 eigenvector
    that carries -d). The estimate is the norm ratio ||Ax|| / ||x||,
    which converges to the largest remaining magnitude even when positive and
    negative eigenvalues tie.
    """
    d = g.regular_degree
    if d is None:
        raise ExpanderError("second_eigenvalue requires a regular graph")
    if g.n == 1 or d == 0:
        return 0.0
    if not is_connected(g):
        raise ExpanderError("graph must be connected")

    adj = g.adjacency.astype(np.float64)
    n = g.n
    ones = np.full(n, 1.0 / math.sqrt(n))
    color = bipartition(g)
    alt = None
    if color is not None:
        alt = np.where(color == 0, 1.0, -1.0) / math.sqrt(n)

    # numpy's own pairwise sums, not BLAS dot/norm, whose summation order
    # depends on the BLAS thread count: beta repeats bit for bit.
    def norm(x: np.ndarray) -> float:
        return math.sqrt((x * x).sum())

    def deflate(x: np.ndarray) -> np.ndarray:
        x = x - (x * ones).sum() * ones
        if alt is not None:
            x = x - (x * alt).sum() * alt
        return x

    rng = np.random.default_rng(seed)
    x = deflate(rng.standard_normal(n))
    size = norm(x)
    if size < 1e-12:
        return 0.0
    x /= size
    est = 0.0
    for _ in range(max_iter):
        y = deflate(adj @ x)
        new_est = norm(y)  # ||Ax|| with ||x|| = 1
        if new_est < 1e-12:
            return 0.0
        x = y / new_est
        if abs(new_est - est) < tol * d:
            return new_est / d
        est = new_est
    raise ExpanderError(f"power iteration did not converge within {max_iter} iterations")
